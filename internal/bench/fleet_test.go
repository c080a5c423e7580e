package bench

import (
	"testing"

	"repro/internal/cluster"
)

// checkFleetPoint asserts the invariants every fleet cell must satisfy:
// throughput measured, both movement measures within 2x the theoretical
// 1/(N+1) share (and nonzero), and a miss storm that actually happened
// and then quiesced.
func checkFleetPoint(t *testing.T, pt FleetPoint) {
	t.Helper()
	if pt.KTPS <= 0 {
		t.Errorf("n=%d: no throughput measured", pt.Servers)
	}
	for name, frac := range map[string]float64{"arc": pt.MovedArc, "census": pt.MovedMeasured} {
		if frac <= 0 || frac > 2*pt.MovedTheory {
			t.Errorf("n=%d: %s movement %.5f outside (0, 2x%.5f]", pt.Servers, name, frac, pt.MovedTheory)
		}
	}
	if pt.MissStormDepth <= 0 || pt.Repairs == 0 {
		t.Errorf("n=%d: join caused no miss storm (depth=%d repairs=%d)", pt.Servers, pt.MissStormDepth, pt.Repairs)
	}
	if pt.MissStormSweeps >= fleetStormCap {
		t.Errorf("n=%d: miss storm never quiesced (%d sweeps)", pt.Servers, pt.MissStormSweeps)
	}
	if pt.MissStormUs <= 0 {
		t.Errorf("n=%d: storm has no measured duration", pt.Servers)
	}
}

// The cells the mcbench golden pins.
func TestFleetSweepQuick(t *testing.T) {
	pts, err := FleetSweep(cluster.ClusterB(), FleetCounts(true), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		checkFleetPoint(t, pt)
	}
	t.Log("\n" + FleetTable(pts))
}

// The headline acceptance cell: 1000 servers, 10,000 pipelined clients,
// live in virtual time — churn, replication, and read repair all real.
// The measured key movement must sit within 2x the theoretical 1/N.
func TestFleetSweep1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-server cell takes ~25s; skipped under -short")
	}
	pts, err := FleetSweep(cluster.ClusterB(), []int{1000}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		checkFleetPoint(t, pt)
		if pt.Clients != 10000 {
			t.Errorf("expected 10000 clients, ran %d", pt.Clients)
		}
	}
	t.Log("\n" + FleetTable(pts))
}
