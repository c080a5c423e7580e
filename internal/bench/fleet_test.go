package bench

import (
	"bufio"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// checkFleetPoint asserts the invariants every fleet cell must satisfy:
// throughput measured, both movement measures within 2x the theoretical
// 1/(N+1) share (and nonzero), and a miss storm that actually happened
// and then quiesced.
func checkFleetPoint(t *testing.T, pt FleetPoint) {
	t.Helper()
	if pt.ktps <= 0 {
		t.Errorf("n=%d: no throughput measured", pt.servers)
	}
	for name, frac := range map[string]float64{"arc": pt.movedArc, "census": pt.movedMeasured} {
		if frac <= 0 || frac > 2*pt.movedTheory {
			t.Errorf("n=%d: %s movement %.5f outside (0, 2x%.5f]", pt.servers, name, frac, pt.movedTheory)
		}
	}
	if pt.missStormDepth <= 0 || pt.repairs == 0 {
		t.Errorf("n=%d: join caused no miss storm (depth=%d repairs=%d)", pt.servers, pt.missStormDepth, pt.repairs)
	}
	if pt.missStormSweeps >= fleetStormCap {
		t.Errorf("n=%d: miss storm never quiesced (%d sweeps)", pt.servers, pt.missStormSweeps)
	}
	if pt.missStormUs <= 0 {
		t.Errorf("n=%d: storm has no measured duration", pt.servers)
	}
}

// checkFleetSweep runs the sweep over counts and checks every cell,
// each with ten pipelined clients per server.
func checkFleetSweep(t *testing.T, counts []int) {
	t.Helper()
	pts, err := FleetSweep(cluster.ClusterB(), counts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		checkFleetPoint(t, pt)
		if pt.clients != 10*pt.servers {
			t.Errorf("n=%d: ran %d clients, want %d", pt.servers, pt.clients, 10*pt.servers)
		}
	}
	t.Log("\n" + FleetTable(pts))
}

// The golden's cells below the headline one. With TestFleetSweep1000
// this covers every count in FleetCounts.
func TestFleetSweepQuick(t *testing.T) {
	checkFleetSweep(t, FleetCounts[:len(FleetCounts)-1])
}

// The headline cell: 1000 servers, 10,000 pipelined clients, live in
// virtual time — churn, replication and read repair all real — in
// under 600 MB of peak RSS: host bytes follow live state. The peak is
// the process's VmHWM, reset first where /proc allows it so earlier
// tests do not count; a race build only logs it.
func TestFleetSweep1000(t *testing.T) {
	if FleetCounts[len(FleetCounts)-1] != 1000 {
		t.Fatalf("FleetCounts %v does not end at the 1000-server cell", FleetCounts)
	}
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5: reset VmHWM
	checkFleetSweep(t, []int{1000})
	kb, ok := peakRSSKB()
	if !ok {
		t.Log("peak RSS: /proc/self/status unreadable")
		return
	}
	t.Logf("peak RSS %d MB", kb>>10)
	const limit = 600 << 10 // KiB
	if kb >= limit && !raceBuild() {
		t.Errorf("peak RSS %d MB, want < %d MB", kb>>10, limit>>10)
	}
}

// peakRSSKB reads the process's peak resident set (VmHWM) in KiB.
func peakRSSKB() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// raceBuild reports a race-detector build, whose shadow memory no RSS
// bound of the program's own covers.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
