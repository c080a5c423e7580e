package repro

// One benchmark per evaluation panel (Figs 3-6 of the paper) plus the
// design-choice ablations from DESIGN.md. Each sub-benchmark drives the
// real client/server stack over the simulated fabric and reports the
// *virtual-time* metric the paper plots — "vus/op" (virtual microseconds
// per operation) for latency panels and "ktps" (thousands of virtual
// transactions per second) for the multi-client panels — alongside Go's
// usual wall-clock numbers, which measure only the simulator itself.
//
// cmd/mcbench prints the full tables (all sizes, all transports); the
// benchmarks here sweep each panel's representative sizes so the whole
// suite stays runnable in minutes.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// latencyPanel runs sub-benchmarks per transport × size for one panel.
func latencyPanel(b *testing.B, clusterName string, mix bench.Mix, sizes []int) {
	b.Helper()
	p := cluster.ProfileByName(clusterName)
	for _, tr := range p.Transports {
		for _, size := range sizes {
			name := fmt.Sprintf("%s/%s", tr, bench.SizeLabel(size))
			b.Run(name, func(b *testing.B) {
				d := cluster.New(p, cluster.Options{})
				defer d.Close()
				c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				w := bench.NewWorkload(42, 8, size)
				if err := w.Populate(c.MC); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				start := c.Clock.Now()
				for i := 0; i < b.N; i++ {
					if err := w.Op(c.MC, mix.IsSet(i)); err != nil {
						b.Fatal(err)
					}
				}
				elapsed := c.Clock.Now() - start
				b.StopTimer()
				b.ReportMetric(float64(elapsed)/float64(b.N)/1e3, "vus/op")
			})
		}
	}
}

// tpsPanel runs sub-benchmarks per transport × client count.
func tpsPanel(b *testing.B, clusterName string, size int, counts []int) {
	b.Helper()
	p := cluster.ProfileByName(clusterName)
	for _, tr := range p.Transports {
		for _, n := range counts {
			name := fmt.Sprintf("%s/%dclients", tr, n)
			b.Run(name, func(b *testing.B) {
				cfg := bench.RunConfig{OpsPerPoint: 50, KeySpace: 16}
				var last float64
				for i := 0; i < b.N; i++ {
					tps, err := bench.TPSPoint(p, tr, n, size, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = tps
				}
				b.ReportMetric(last/1e3, "ktps")
			})
		}
	}
}

// benchSmall / benchLarge are each panel's representative sweep points.
var (
	benchSmall = []int{4, 4096}
	benchLarge = []int{65536, 524288}
)

// Figure 3: Set and Get latency on Cluster A (ConnectX DDR, 10GigE TOE,
// 1GigE).
func BenchmarkFig3aSetSmallClusterA(b *testing.B) { latencyPanel(b, "A", bench.MixSet, benchSmall) }
func BenchmarkFig3bSetLargeClusterA(b *testing.B) { latencyPanel(b, "A", bench.MixSet, benchLarge) }
func BenchmarkFig3cGetSmallClusterA(b *testing.B) { latencyPanel(b, "A", bench.MixGet, benchSmall) }
func BenchmarkFig3dGetLargeClusterA(b *testing.B) { latencyPanel(b, "A", bench.MixGet, benchLarge) }

// Figure 4: Set and Get latency on Cluster B (ConnectX QDR).
func BenchmarkFig4aSetSmallClusterB(b *testing.B) { latencyPanel(b, "B", bench.MixSet, benchSmall) }
func BenchmarkFig4bSetLargeClusterB(b *testing.B) { latencyPanel(b, "B", bench.MixSet, benchLarge) }
func BenchmarkFig4cGetSmallClusterB(b *testing.B) { latencyPanel(b, "B", bench.MixGet, benchSmall) }
func BenchmarkFig4dGetLargeClusterB(b *testing.B) { latencyPanel(b, "B", bench.MixGet, benchLarge) }

// Figure 5: mixed instruction streams, small messages.
func BenchmarkFig5aNonInterleavedClusterA(b *testing.B) {
	latencyPanel(b, "A", bench.MixNonInterleaved, benchSmall)
}
func BenchmarkFig5bNonInterleavedClusterB(b *testing.B) {
	latencyPanel(b, "B", bench.MixNonInterleaved, benchSmall)
}
func BenchmarkFig5cInterleavedClusterA(b *testing.B) {
	latencyPanel(b, "A", bench.MixInterleaved, benchSmall)
}
func BenchmarkFig5dInterleavedClusterB(b *testing.B) {
	latencyPanel(b, "B", bench.MixInterleaved, benchSmall)
}

// Figure 6: aggregate Get throughput vs client count.
func BenchmarkFig6aTPS4BClusterA(b *testing.B)  { tpsPanel(b, "A", 4, []int{8, 16}) }
func BenchmarkFig6bTPS4KBClusterA(b *testing.B) { tpsPanel(b, "A", 4096, []int{8, 16}) }
func BenchmarkFig6cTPS4BClusterB(b *testing.B)  { tpsPanel(b, "B", 4, []int{8, 16}) }
func BenchmarkFig6dTPS4KBClusterB(b *testing.B) { tpsPanel(b, "B", 4096, []int{8, 16}) }

// Ablations: the design choices DESIGN.md calls out.

// BenchmarkAblationEagerThreshold sweeps the §V one-transaction
// cut-over for 16 KB gets (below: client RDMA-reads; above: packed).
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, th := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("threshold-%s", bench.SizeLabel(th)), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := bench.AblationEagerThreshold(16*1024, []int{th}, bench.RunConfig{OpsPerPoint: 20})
				if err != nil {
					b.Fatal(err)
				}
				mean = res[th]
			}
			b.ReportMetric(mean, "vus/op")
		})
	}
}

// BenchmarkAblationWorkerCount sweeps the §V-A worker pool width.
func BenchmarkAblationWorkerCount(b *testing.B) {
	for _, wc := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", wc), func(b *testing.B) {
			var ktps float64
			for i := 0; i < b.N; i++ {
				res, err := bench.AblationWorkerCount([]int{wc}, 16, bench.RunConfig{OpsPerPoint: 40})
				if err != nil {
					b.Fatal(err)
				}
				ktps = res[wc]
			}
			b.ReportMetric(ktps, "ktps")
		})
	}
}

// BenchmarkAblationPollingVsEvent compares CQ polling with interrupt-
// driven completion (§II-A1: polling is the low-latency choice).
func BenchmarkAblationPollingVsEvent(b *testing.B) {
	for _, mode := range []string{"polling", "events"} {
		b.Run(mode, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				poll, ev, err := bench.AblationPollingVsEvents(bench.RunConfig{OpsPerPoint: 20})
				if err != nil {
					b.Fatal(err)
				}
				if mode == "polling" {
					us = poll
				} else {
					us = ev
				}
			}
			b.ReportMetric(us, "vus/op")
		})
	}
}

// BenchmarkAblationCounterAcks measures the §IV-C internal-message cost
// of a completion counter versus NULL counters.
func BenchmarkAblationCounterAcks(b *testing.B) {
	for _, mode := range []string{"null-counters", "completion-counter"} {
		b.Run(mode, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				nullUs, complUs, _, _, err := bench.AblationCounterAcks(20)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "null-counters" {
					us = nullUs
				} else {
					us = complUs
				}
			}
			b.ReportMetric(us, "vus/op")
		})
	}
}

// BenchmarkAblationRCvsUD compares reliable and unreliable endpoints
// (§VII future work).
func BenchmarkAblationRCvsUD(b *testing.B) {
	for _, mode := range []string{"RC", "UD"} {
		b.Run(mode, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				rc, ud, err := bench.AblationRCvsUD(bench.RunConfig{OpsPerPoint: 20})
				if err != nil {
					b.Fatal(err)
				}
				if mode == "RC" {
					us = rc
				} else {
					us = ud
				}
			}
			b.ReportMetric(us, "vus/op")
		})
	}
}

// BenchmarkAblationSRQFootprint reports the server's receive-buffer
// memory with per-endpoint windows vs a shared receive queue at 32
// clients (§VII; the pool is flat, the windows grow linearly).
func BenchmarkAblationSRQFootprint(b *testing.B) {
	for _, mode := range []string{"rc", "srq"} {
		b.Run(mode, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				var err error
				bytes, err = bench.ConnScaleFootprint(cluster.ClusterB(), mode, 32, bench.RunConfig{OpsPerPoint: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes)/1024, "recvbuf-KB")
		})
	}
}
