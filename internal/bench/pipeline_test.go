package bench

import (
	"testing"

	"repro/internal/cluster"
)

// TestPipelineSpeedup is the PR's acceptance bar: on a single UCR
// connection, a window of 8 must beat the blocking client by at least
// 3x in virtual time — the per-op doorbell, CQ-wakeup and round-trip
// costs overlap instead of serializing.
func TestPipelineSpeedup(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 200, KeySpace: 16}
	pts, err := PipelineSweep(cluster.ClusterB(), []cluster.Transport{cluster.UCRIB},
		[]int{1, 8}, []int{64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byDepth := map[int]float64{}
	for _, pt := range pts {
		byDepth[pt.Depth] = pt.KTPS
	}
	if byDepth[1] <= 0 || byDepth[8] <= 0 {
		t.Fatalf("bad sweep: %+v", pts)
	}
	speedup := byDepth[8] / byDepth[1]
	t.Logf("UCR-IB 64B: depth1=%.2f KTPS depth8=%.2f KTPS speedup=%.2fx",
		byDepth[1], byDepth[8], speedup)
	if speedup < 3.0 {
		t.Fatalf("depth-8 speedup %.2fx < 3x (depth1=%.2f depth8=%.2f KTPS)",
			speedup, byDepth[1], byDepth[8])
	}
}

// TestPipelineDepthMonotonic sanity-checks that deepening the window
// never hurts on either transport (single connection), for small values
// and for 4 KB ones, where copies and the link do the work.
func TestPipelineDepthMonotonic(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 120, KeySpace: 16}
	pts, err := PipelineSweep(cluster.ClusterB(),
		[]cluster.Transport{cluster.UCRIB, cluster.IPoIB},
		[]int{1, 4, 16}, []int{64, 4096}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev PipelinePoint
	for _, pt := range pts {
		if pt.Transport == prev.Transport && pt.ValueSize == prev.ValueSize && pt.KTPS < prev.KTPS*0.95 {
			t.Errorf("%s %d B depth=%d: %.2f KTPS regressed below depth-%d's %.2f",
				pt.Transport, pt.ValueSize, pt.Depth, pt.KTPS, prev.Depth, prev.KTPS)
		}
		prev = pt
	}
}

// TestPipeline4KScalesWithDepth: a 4 KB reply leaves the server when its
// handler has built it, so small windows scale almost linearly — the
// second and fourth requests in flight hide behind the first one's
// round trip. Held to the end of the server's CQ sweep, each reply also
// waited out the next request's harvest and pack copy: 1.77x and 2.66x.
func TestPipeline4KScalesWithDepth(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 300, KeySpace: 16}
	pts, err := PipelineSweep(cluster.ClusterB(), []cluster.Transport{cluster.UCRIB},
		[]int{1, 2, 4}, []int{4096}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := pts[0].KTPS
	for i, want := range []float64{1.95, 3.4} {
		pt := pts[i+1]
		if got := pt.KTPS / d1; got < want {
			t.Errorf("UCR-IB 4 KB depth %d: %.2f KTPS = %.2fx depth 1 (%.2f), want >= %.2fx",
				pt.Depth, pt.KTPS, got, d1, want)
		}
	}
}
