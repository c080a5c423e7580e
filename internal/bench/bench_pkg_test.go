package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func TestLatencyRecorder(t *testing.T) {
	r := &LatencyRecorder{}
	for _, v := range []simnet.Duration{1000, 2000, 3000, 4000, 5000} {
		r.record(v)
	}
	if len(r.samples) != 5 {
		t.Fatalf("Count = %d", len(r.samples))
	}
	if r.Mean() != 3.0 {
		t.Fatalf("Mean = %v, want 3.0 us", r.Mean())
	}
	if r.Min() != 1.0 || r.Max() != 5.0 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
	if got := r.Percentile(50); got != 3.0 {
		t.Fatalf("P50 = %v", got)
	}
	if got := r.Percentile(100); got != 5.0 {
		t.Fatalf("P100 = %v", got)
	}
	if r.Jitter() != 4.0 {
		t.Fatalf("Jitter = %v", r.Jitter())
	}
	empty := &LatencyRecorder{}
	if empty.Mean() != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.Percentile(99) != 0 {
		t.Fatal("empty recorder should report zeros")
	}
}

// TestPercentileNearestRank pins the nearest-rank rule: the p-th
// percentile of n samples is the ceil(p·n/100)-th smallest, so a
// fractional rank rounds up, never down.
func TestPercentileNearestRank(t *testing.T) {
	five := &LatencyRecorder{}
	for v := simnet.Duration(1); v <= 5; v++ {
		five.record(v * 1000)
	}
	if got := five.Percentile(50); got != 3 {
		t.Errorf("p50 of {1..5} us = %v, want 3 (rank ceil(2.5) = 3)", got)
	}
	fifty := &LatencyRecorder{}
	for v := simnet.Duration(1); v <= 50; v++ {
		fifty.record(v * 1000)
	}
	if got := fifty.Percentile(99); got != 50 {
		t.Errorf("p99 of {1..50} us = %v, want the max 50 (rank ceil(49.5) = 50)", got)
	}
	if got := fifty.Percentile(50); got != 25 {
		t.Errorf("p50 of {1..50} us = %v, want 25 (rank 25 exactly)", got)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{1: "1", 512: "512", 1024: "1K", 8192: "8K", 524288: "512K", 1 << 20: "1M"}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMixCycles(t *testing.T) {
	sets := func(m Mix, n int) (count int) {
		for i := 0; i < n; i++ {
			if m.isSet(i) {
				count++
			}
		}
		return count
	}
	if sets(MixSet, 7) != 7 {
		t.Fatal("MixSet cycle")
	}
	if sets(MixGet, 7) != 0 {
		t.Fatal("MixGet cycle")
	}
	if got := sets(MixNonInterleaved, 100); got != 10 {
		t.Fatalf("non-interleaved sets = %d, want 10 (paper: 10 sets then 90 gets)", got)
	}
	// Non-interleaved means the sets come first, contiguously, and the
	// cycle repeats every 100 operations.
	for i := 0; i < 10; i++ {
		if !MixNonInterleaved.isSet(i) || !MixNonInterleaved.isSet(100+i) {
			t.Fatal("sets are not contiguous at the front")
		}
	}
	for i := 0; i < 6; i++ {
		if MixInterleaved.isSet(i) != (i%2 == 0) {
			t.Fatalf("interleaved op %d: want set, get, set, ...", i)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := newWorkload(7, 10, 64)
	b := newWorkload(7, 10, 64)
	if !bytes.Equal(a.value, b.value) {
		t.Fatal("same seed, different values")
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] {
			t.Fatal("same seed, different keys")
		}
	}
	c := newWorkload(8, 10, 64)
	if a.keys[0] == c.keys[0] {
		t.Fatal("different seeds, same keys")
	}
	// Round-robin key cursor.
	first := a.key()
	for i := 1; i < 10; i++ {
		a.key()
	}
	if a.key() != first {
		t.Fatal("key cursor did not wrap")
	}
}

func TestLatencyPointProducesSaneNumbers(t *testing.T) {
	p := cluster.ClusterB()
	cfg := RunConfig{OpsPerPoint: 10, KeySpace: 4}
	rec, err := latencyPoint(p, cluster.UCRIB, MixGet, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.samples) != 10 {
		t.Fatalf("samples = %d", len(rec.samples))
	}
	mean := rec.Mean()
	if mean < 1 || mean > 100 {
		t.Fatalf("UCR small-get mean = %v us, implausible", mean)
	}
}

func TestLatencySweepOrdering(t *testing.T) {
	// Latency must be non-decreasing with size for every transport.
	p := cluster.ClusterB()
	cfg := RunConfig{OpsPerPoint: 8, KeySpace: 4}
	sizes := []int{64, 4096, 65536}
	series, err := latencySweep(p, []cluster.Transport{cluster.UCRIB, cluster.IPoIB}, MixGet, sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tr, vals := range series {
		if len(vals) != len(sizes) {
			t.Fatalf("%s: %d points", tr, len(vals))
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("%s: latency decreased with size: %v", tr, vals)
			}
		}
	}
	// And the headline: UCR beats IPoIB at every size.
	for i := range sizes {
		if series[cluster.UCRIB][i] >= series[cluster.IPoIB][i] {
			t.Errorf("size %d: UCR (%v) not faster than IPoIB (%v)",
				sizes[i], series[cluster.UCRIB][i], series[cluster.IPoIB][i])
		}
	}
}

func TestTPSPointScalesWithClients(t *testing.T) {
	p := cluster.ClusterB()
	cfg := RunConfig{OpsPerPoint: 40, KeySpace: 8}
	tps2, err := tpsPoint(p, cluster.UCRIB, 2, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tps8, err := tpsPoint(p, cluster.UCRIB, 8, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tps8 <= tps2 {
		t.Fatalf("TPS did not scale: 2 clients %v, 8 clients %v", tps2, tps8)
	}
}

func TestFigureRegistryComplete(t *testing.T) {
	// Every panel of Figs 3-6 must be present: 16 panels.
	if len(Figures) != 16 {
		t.Fatalf("figure count = %d, want 16", len(Figures))
	}
	want := []string{
		"fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c", "fig4d",
		"fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig6c", "fig6d",
	}
	for _, id := range want {
		spec, ok := FigureByID(id)
		if !ok {
			t.Errorf("missing %s", id)
			continue
		}
		if spec.Cluster != "A" && spec.Cluster != "B" {
			t.Errorf("%s: bad cluster %q", id, spec.Cluster)
		}
	}
	if _, ok := FigureByID("fig9z"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestFigureRunAndReport(t *testing.T) {
	spec, _ := FigureByID("fig5b") // mixed workload, cluster B
	cfg := RunConfig{OpsPerPoint: 6, KeySpace: 4}
	// Shrink the sweep via a custom run to keep the test fast: use the
	// spec as-is but with few ops; fig5b sweeps 8 sizes × 3 transports.
	fig, err := spec.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig5b" || len(fig.SeriesOrder) != 3 {
		t.Fatalf("fig = %+v", fig)
	}
	for name, vals := range fig.Series {
		if len(vals) != len(fig.XTicks) {
			t.Fatalf("%s: %d values for %d ticks", name, len(vals), len(fig.XTicks))
		}
	}

	var tbl bytes.Buffer
	if err := WriteTable(&tbl, fig); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "fig5b") || !strings.Contains(out, "UCR-IB") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+len(fig.XTicks) {
		t.Fatalf("table rows = %d", len(lines))
	}

	factors := fig.SpeedupOver("UCR-IB", "IPoIB")
	if len(factors) != len(fig.XTicks) {
		t.Fatalf("speedup points = %d", len(factors))
	}
	for _, f := range factors {
		if f <= 1 {
			t.Errorf("UCR not faster in mixed workload: factor %v", f)
		}
	}
	if fig.SpeedupOver("UCR-IB", "nope") != nil {
		t.Fatal("unknown series should yield nil")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := simnet.NewRand(99)
	z := newZipf(rng, 0.99, 1000)
	counts := make([]int, 1000)
	const draws = 50_000
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	// Rank 0 must dominate and ranks must be roughly ordered.
	if counts[0] < counts[10] || counts[10] < counts[500] {
		t.Fatalf("popularity not skewed: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Classical property: with s≈1 the top 10% of keys carry well over
	// half the mass.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.5 {
		t.Fatalf("top-10%% mass = %.2f, want > 0.5", frac)
	}
	// The CDF agrees with the empirical mass within a few points.
	if hf := z.cdf[99]; math.Abs(hf-float64(top)/draws) > 0.05 {
		t.Fatalf("cdf[99] = %.3f vs empirical %.3f", hf, float64(top)/draws)
	}
	// Degenerate cases.
	if newZipf(rng, 1, 0).next() != 0 {
		t.Fatal("n=0 should clamp to a single rank")
	}
}

func TestZipfWorkloadDraws(t *testing.T) {
	w := newZipfWorkload(42, 1, 64, 8, 0.99)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		k := w.key()
		seen[k]++
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct keys drawn", len(seen))
	}
	// The hottest key appears far more often than the uniform share.
	max := 0
	for _, n := range seen {
		if n > max {
			max = n
		}
	}
	if max < 3*5000/64 {
		t.Fatalf("hottest key drawn %d times, want strong skew", max)
	}
	// Determinism.
	w2 := newZipfWorkload(42, 1, 64, 8, 0.99)
	for i := 0; i < 100; i++ {
		if w2.key() == "" {
			t.Fatal("empty key")
		}
	}
}

// TestReplayPointEvicts is the end-to-end check on the eviction replay
// (its numbers are pinned by the workloads section of the mcbench
// golden): the cache must be too small for the stream — evictions, and
// a hit rate strictly between 0 and 1 — or the cell measures nothing.
func TestReplayPointEvicts(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.UCRIB, cluster.IPoIB} {
		r, err := replayPoint(cluster.ClusterB(), tr, RunConfig{OpsPerPoint: 200})
		if err != nil {
			t.Fatal(err)
		}
		if r.Evictions == 0 || r.Hits == 0 || r.Hits >= r.Gets {
			t.Fatalf("%s: %d evictions, %d hits of %d gets: the replay cache does not evict", tr, r.Evictions, r.Hits, r.Gets)
		}
		if r.MeanUs <= 0 || r.P99Us < r.MeanUs {
			t.Fatalf("%s: mean %.2f us, p99 %.2f us", tr, r.MeanUs, r.P99Us)
		}
	}
}
