package bench

import (
	"testing"

	"repro/internal/cluster"
)

// TestScalingSweepPlateauAndStriping is the PR's acceptance experiment:
// with the modeled global lock (Stripes=1) small-Get TPS stays flat
// (±10%) from 1 to 8 workers, and the striped engine (Stripes=8) beats
// that plateau by ≥3× at 16 clients.
func TestScalingSweepPlateauAndStriping(t *testing.T) {
	p := cluster.ClusterB()
	pts, err := ScalingSweep(p, cluster.UCRIB, []int{1, 2, 4, 8}, []int{1, 8}, 16,
		[]Mix{MixGet}, RunConfig{OpsPerPoint: 30})
	if err != nil {
		t.Fatal(err)
	}
	cell := make(map[[2]int]float64, len(pts))
	for _, pt := range pts {
		cell[[2]int{pt.workers, pt.stripes}] = pt.ktps
		t.Logf("workers=%d stripes=%d: %.1f KTPS", pt.workers, pt.stripes, pt.ktps)
	}

	// Global lock: flat within ±10% across worker counts.
	lo, hi := cell[[2]int{1, 1}], cell[[2]int{1, 1}]
	for _, w := range []int{2, 4, 8} {
		v := cell[[2]int{w, 1}]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo*1.10 {
		t.Errorf("stripes=1 should plateau: min %.1f max %.1f KTPS (>10%% spread)", lo, hi)
	}

	// Striped engine: ≥3× the global-lock plateau at 8 workers.
	if striped, global := cell[[2]int{8, 8}], cell[[2]int{8, 1}]; striped < 3*global {
		t.Errorf("stripes=8 at 8 workers = %.1f KTPS, want >= 3x the %.1f KTPS global-lock plateau",
			striped, global)
	}

	// And it must actually scale with workers, not just sidestep the lock.
	if cell[[2]int{8, 8}] < 2*cell[[2]int{1, 8}] {
		t.Errorf("stripes=8 should scale with workers: 1w %.1f vs 8w %.1f KTPS",
			cell[[2]int{1, 8}], cell[[2]int{8, 8}])
	}
}
