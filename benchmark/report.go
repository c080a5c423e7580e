package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/cluster"
)

// header names what produced a report: commit (run.sh passes it in),
// toolchain, cores, seed.
func header(cfg config) string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed)
}

// runSuite runs every workload untraced, then traced, and prints every
// metric by name with its unit and, for end-to-end metrics, its bound.
func runSuite(cfg config) error {
	fmt.Printf("# repro benchmark: %s\n", header(cfg))
	fmt.Println("# clocks: vns/vus/kop/vs = virtual time charged by the cost model; ns/s = host time of the Go code")
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("\n## %s\n# %s\n", w.Name, w.Why)
		res, err := runEndToEnd(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		failed += res.failed
		fmt.Printf("end-to-end: untraced, closed loop, %d clients, %d ops in %d rounds\n", w.Clients, res.attempted, len(res.roundNsOp))
		for _, m := range endToEnd {
			extra := ""
			if m.Name == "wall_ns_per_op" {
				extra = fmt.Sprintf("  (median of n=%d rounds at reference speed, quartiles %.1f–%.1f; as the host clock read them: median %.1f, quartiles %.1f–%.1f)",
					len(res.roundNsOp), quantileOf(res.roundNsOp, 0.25), quantileOf(res.roundNsOp, 0.75),
					median(res.rawNsOp), quantileOf(res.rawNsOp, 0.25), quantileOf(res.rawNsOp, 0.75))
			}
			fmt.Printf("  %-34s %14.6g %-7s %s is better, regression beyond %s%s\n",
				m.Name, res.values[m.Name], m.Unit, m.Better, boundText(m), extra)
		}
		fmt.Printf("  %-34s %14.6g %-7s any increase is a regression (%d of %d ops failed)\n",
			"fail_ratio", float64(res.failed)/float64(res.attempted), "frac", res.failed, res.attempted)

		tr, err := runTraced(w, cfg)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		failed += tr.failed
		fmt.Printf("per-layer: %d traced ops + layer probes; spans in %s\n", tr.tracedOps, tr.spanFile)
		for _, m := range perLayer {
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, tr.values[m.Name], m.Unit)
		}
		printAttribution(w, tr)
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed the correctness oracle", failed)
	}
	return nil
}

// printAttribution lays the isolated-GET self costs beside the
// workload's per-op time on both clocks, with each row's share; the
// rows sum to the per-op time exactly, the remainder being the
// unattributed row.
func printAttribution(w *workload, tr *tracedResult) {
	v := tr.values
	type row struct {
		name        string
		wall, model float64
	}
	var rows []row
	if w.Kind == kindFleet {
		rows = append(rows, row{"cluster.fleet_self", v["cluster.fleet_self_wall_ns"], 0})
	}
	rows = append(rows,
		row{"mcclient.client_self", v["mcclient.client_self_wall_ns"], tr.spans[spanClientGet].selfModel},
		row{"mcclient.transport_self", v["mcclient.transport_self_wall_ns"], v["mcclient.transport_self_model_ns"]},
		row{"memcached.serve_self", v["memcached.serve_self_wall_ns"], v["memcached.serve_self_model_ns"]},
	)
	if w.Transport == cluster.UCRIB {
		rows = append(rows,
			row{"ucr.self", v["ucr.self_wall_ns"], v["ucr.self_model_ns"]},
			row{"verbs.pingpong (incl. simnet)", v["verbs.pingpong_wall_ns"], v["verbs.pingpong_model_ns"]},
		)
	} else {
		rows = append(rows, row{"sockstream.rtt (incl. simnet)", v["sockstream.rtt_wall_ns"], v["sockstream.rtt_model_ns"]})
	}
	rows = append(rows, row{"benchmark.unattributed", v["benchmark.unattributed_wall_ns"], v["benchmark.unattributed_model_ns"]})
	var sumWall, sumModel float64
	for _, r := range rows {
		sumWall += r.wall
		sumModel += r.model
	}
	fmt.Printf("attribution: one isolated GET, layer by layer, against the workload's per-op time\n")
	fmt.Printf("  %-34s %12s %7s %12s %7s\n", "layer self cost", "host ns", "share", "virtual ns", "share")
	for _, r := range rows {
		fmt.Printf("  %-34s %12.1f %6.1f%% %12.1f %6.1f%%\n", r.name, r.wall, 100*r.wall/sumWall, r.model, 100*r.model/sumModel)
	}
	fmt.Printf("  %-34s %12.1f %7s %12.1f\n", "sum", sumWall, "", sumModel)
	fmt.Printf("  %-34s %12.1f %7s %12.1f\n", "per-op time (untraced pass)", tr.wallPerOp, "", tr.modelPerOp)
	fmt.Printf("  traced GET op span: %.1f ns host and %.1f virtual ns, of which %.1f ns host outside any child span (harness and recording; on a pipeline, the window's other ops)\n",
		tr.spans[spanOpGet].wall, tr.spans[spanOpGet].model, tr.spans[spanOpGet].selfWall)
}

// floors are the absolute parts of two bounds. BENCHMARK.json can only
// say a share of the parent's median, and a share of a number near zero
// is smaller than its noise: half an allocation per op, 0.05 s of set-up.
var floors = map[string]float64{"allocs_per_op": 0.5, "setup_s": 0.05}

// slack is how much worse than base a value of m may be before it
// counts as a regression.
func slack(m metric, base float64) float64 {
	return max(m.Bound*math.Abs(base), floors[m.Name])
}

func boundText(m metric) string {
	if f, ok := floors[m.Name]; ok {
		return fmt.Sprintf("max(%g%%, %g %s)", m.Bound*100, f, m.Unit)
	}
	return fmt.Sprintf("%g%%", m.Bound*100)
}

// runSelfcheck runs the untraced suite three times in one process —
// twice on the seed, once on seed+1 — and prints, per metric and
// workload, the differences beside the bound. It fails if any op fails,
// if a same-seed or next-seed difference exceeds the metric's slack, or
// if the virtual-time metrics of the two single-client blocking
// workloads are not bit-identical across the same-seed runs.
func runSelfcheck(cfg config) error {
	fmt.Printf("# repro benchmark selfcheck: %s\n", header(cfg))
	type suite map[string]*result
	run := func(seed uint64) (suite, error) {
		c := cfg
		c.seed, c.limit = seed, 0 // the fixed rounds only
		out := suite{}
		for i := range workloads {
			res, err := runEndToEnd(&workloads[i], c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[i].Name, err)
			}
			if res.failed > 0 {
				return nil, fmt.Errorf("%s: %d of %d ops failed", workloads[i].Name, res.failed, res.attempted)
			}
			out[workloads[i].Name] = res
		}
		return out, nil
	}
	a, err := run(cfg.seed)
	if err != nil {
		return err
	}
	b, err := run(cfg.seed)
	if err != nil {
		return err
	}
	c, err := run(cfg.seed + 1)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-18s %14s %10s %10s  %s\n", "workload", "metric", "value", "same seed", "seed+1", "bound")
	var problems []string
	for i := range workloads {
		name := workloads[i].Name
		for _, m := range endToEnd {
			va, vb, vc := a[name].values[m.Name], b[name].values[m.Name], c[name].values[m.Name]
			mark := ""
			if lim := slack(m, va); math.Abs(vb-va) > lim || math.Abs(vc-va) > lim {
				mark = "  > bound"
				problems = append(problems, fmt.Sprintf("%s %s: runs of the same code differ by more than the bound", name, m.Name))
			}
			if strings.HasPrefix(m.Name, "model_") && workloads[i].Clients == 1 && workloads[i].Kind == kindBlocking {
				if va == vb {
					mark += "  bit-identical"
				} else {
					mark += "  NOT REPRODUCIBLE"
					problems = append(problems, fmt.Sprintf("%s %s differs across same-seed runs: %v vs %v (%.1e of it)", name, m.Name, va, vb, relDiff(va, vb)))
				}
			}
			fmt.Printf("%-18s %-18s %14.6g %9.3f%% %9.3f%%  %s%s\n", name, m.Name, va, relDiff(va, vb)*100, relDiff(va, vc)*100, boundText(m), mark)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", p)
		}
		return fmt.Errorf("selfcheck: %d problems", len(problems))
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}
