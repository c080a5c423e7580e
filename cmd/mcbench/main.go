// Command mcbench regenerates the paper's evaluation figures (Figs 3–6)
// and this repository's extension studies on the simulated clusters.
//
// Usage:
//
//	mcbench [-figure fig3a] [-csv] [-speedups] [-stripes N]   the paper's panels
//	mcbench -study <name|all> [-quick]                        one study, or every one
//	mcbench -list                                             the studies and the panels
//	        [-ops N]                                          with either form
//
// With no flags every panel is produced (the figures study). Everything
// mcbench prints is a pure function of its flags — same flags, same
// bytes, on any host, at any GOMAXPROCS, whatever ran before in the
// process — so the regression gate is a byte comparison: the output of
//
//	mcbench -study all -quick
//
// is checked in as testdata/studies.golden (`make golden` rewrites it)
// and this package's test compares every study with its section of it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// study is one named experiment: a function from a run configuration to
// text.
type study struct {
	name  string
	about string
	// ops is the measured operations per point when -ops doesn't say
	// otherwise: the count EXPERIMENTS.md's tables for this study are at
	// (0: the study has no such axis).
	ops int
	// run writes the study's tables. quick trims an axis too slow for a
	// tier-1 test; only fleet has one.
	run func(w io.Writer, cfg bench.RunConfig, quick bool) error
}

// figureOps is the figures study's operations per point.
const figureOps = 40

// studies is everything mcbench can run, in `-study all` order. The
// golden test walks this table.
var studies = []study{
	{"figures", "the paper's 16 panels: Figs 3-5 latency, Fig 6 multi-client TPS", figureOps,
		func(w io.Writer, cfg bench.RunConfig, _ bool) error {
			return writeFigures(w, bench.Figures, cfg, false, false)
		}},
	{"scaling", "server workers x lock stripes, 16 UCR-IB clients, CPU-bound engine", 50, runScaling},
	{"pipeline", "window depth x value size on one connection, UCR-IB and IPoIB", 300, runPipeline},
	{"wrreply", "the pipeline sweep on UCR-IB with RDMA-write replies off and on", 300, runWriteReply},
	{"connscale", "server receive memory per client and TPS at 100 clients: rc/srq/ud/mux", 20, runConnScale},
	{"onesided", "one-sided RDMA-read GET vs AM GET: latency by size, TPS by clients", 40, runOneSided},
	{"ablations", "design choices: eager threshold, workers, polling, acks, mget, SRQ, jitter", 50, runAblations},
	{"faults", "drop% x transport over a seeded lossy fabric", 50, runFaults},
	{"fleet", "N servers, 10N replicated clients, one join; -quick stops at N=100", 0, runFleet},
	{"workloads", "memslap mixes x key order x server pool at 8 clients; Zipf replay on a cache that evicts", 200, runWorkloads},
}

// write runs the study under the banner that names the flags
// reproducing it. ops is the -ops flag (0: the study's own count).
func (s study) write(w io.Writer, ops int, quick bool) error {
	if ops == 0 {
		ops = s.ops
	}
	fmt.Fprintf(w, "== study %s", s.name)
	if ops != 0 {
		fmt.Fprintf(w, " -ops %d", ops)
	}
	fmt.Fprintln(w)
	if err := s.run(w, bench.RunConfig{OpsPerPoint: ops}, quick); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// writeFigures renders panels as aligned tables or CSV, each followed by
// a blank line, optionally with the UCR-vs-baseline factors the paper
// quotes.
func writeFigures(w io.Writer, specs []bench.FigureSpec, cfg bench.RunConfig, csv, speedups bool) error {
	for _, spec := range specs {
		fig, err := spec.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		if csv {
			err = bench.WriteCSV(w, fig)
		} else {
			err = bench.WriteTable(w, fig)
		}
		if err != nil {
			return err
		}
		if speedups {
			for _, base := range fig.SeriesOrder {
				if base == "UCR-IB" {
					continue
				}
				fmt.Fprintf(w, "speedup UCR-IB vs %s:", base)
				for _, f := range fig.SpeedupOver("UCR-IB", base) {
					if fig.Unit == "KTPS" && f > 0 {
						// Throughput: higher is better, so invert.
						f = 1 / f
					}
					fmt.Fprintf(w, " %.1fx", f)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runScaling is the workers x stripes grid: small gets and the
// interleaved mix, 16 closed-loop clients on UCR-IB, cluster B. The
// sweep sets its own stripe axis.
func runScaling(w io.Writer, cfg bench.RunConfig, _ bool) error {
	pts, err := bench.ScalingSweep(cluster.ClusterB(), cluster.UCRIB,
		[]int{1, 2, 4, 8}, []int{1, 2, 4, 8}, 16,
		[]bench.Mix{bench.MixGet, bench.MixInterleaved}, cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.ScalingTable(pts))
	return err
}

// runPipeline is the window-depth sweep: single connection, closed loop,
// cluster B.
func runPipeline(w io.Writer, cfg bench.RunConfig, _ bool) error {
	pts, err := bench.PipelineSweep(cluster.ClusterB(),
		[]cluster.Transport{cluster.UCRIB, cluster.IPoIB},
		bench.PipelineDepths, bench.PipelineSizes, cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.PipelineTable(pts))
	return err
}

// runWriteReply is the write-reply crossover sweep: the pipelined GET
// matrix on UCR-IB, each cell with the write-based reply path off and on.
func runWriteReply(w io.Writer, cfg bench.RunConfig, _ bool) error {
	pts, err := bench.WriteReplySweep(cluster.ClusterB(), bench.PipelineDepths, bench.WriteReplySizes, cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.PipelineTable(pts))
	return err
}

func runConnScale(w io.Writer, cfg bench.RunConfig, _ bool) error {
	rep, err := bench.ConnScaleSweep(cluster.ClusterB(), 100, cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.ConnScaleTable(rep))
	return err
}

func runOneSided(w io.Writer, cfg bench.RunConfig, _ bool) error {
	rep, err := bench.OneSidedSweep(bench.OneSidedSizes(), cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.OneSidedTable(rep))
	return err
}

// runAblations prints the design-choice studies from DESIGN.md.
func runAblations(w io.Writer, cfg bench.RunConfig, _ bool) error {
	eager, err := bench.AblationEagerThreshold(16*1024, []int{1024, 4096, 8192, 16384, 65536}, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, bench.AblationResultString("eager threshold sweep: 16KB gets, cluster B (mean latency)", eager, "us"))

	workers, err := bench.AblationWorkerCount([]int{1, 2, 4, 8}, 16, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, bench.AblationResultString("worker threads: 16 clients, 4B gets, cluster B (aggregate)", workers, "KTPS"))

	poll, ev, err := bench.AblationPollingVsEvents(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# CQ polling vs events (64B gets, cluster B)\npolling  %.2f us\nevents   %.2f us\n", poll, ev)

	rc, ud, err := bench.AblationRCvsUD(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# RC vs UD endpoints (64B gets, cluster B)\nRC       %.2f us\nUD       %.2f us\n", rc, ud)

	nullUs, complUs, _, acks, err := bench.AblationCounterAcks(cfg.OpsPerPoint)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# counter acks (UCR eager echo)\nNULL counters        %.2f us, 0 acks\ncompletion counter   %.2f us, %d acks\n", nullUs, complUs, acks)

	p := cluster.ClusterB()
	mg, err := bench.MGetSweep(p, p.Transports, 16, 64, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# mget batching: 16 keys x 64B, cluster B")
	for _, r := range mg {
		fmt.Fprintf(w, "%-8s 16 singles %8.2f us   one mget %8.2f us   (%.1fx)\n", r.Transport, r.SinglesUs, r.BatchedUs, r.Improvement)
	}

	counts := []int{4, 8, 16, 32}
	tps, err := bench.TPSSweep(p, []cluster.Transport{cluster.UCRIB}, counts, 4, cfg)
	if err != nil {
		return err
	}
	scale := make(map[int]float64, len(counts))
	for i, n := range counts {
		scale[n] = tps[cluster.UCRIB][i]
	}
	fmt.Fprint(w, bench.AblationResultString("client scaling: UCR-IB 4B gets, cluster B (aggregate)", scale, "KTPS"))

	var recv [2]int64
	for i, mode := range []string{"rc", "srq"} {
		if recv[i], err = bench.ConnScaleFootprint(p, mode, 32, cfg); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# receive-buffer footprint at 32 clients (server total, cluster B)\nper-endpoint windows  %8d KB\nshared receive queue  %8d KB\n",
		recv[0]/1024, recv[1]/1024)

	fmt.Fprintln(w, "# latency jitter: 64B gets, 500 samples, cluster B (us)")
	for _, tr := range p.Transports {
		rec, err := bench.JitterPoint(p, tr, 64, 500, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s min %7.2f  mean %7.2f  p99 %7.2f  max %7.2f  spread %7.2f\n",
			tr, rec.Min(), rec.Mean(), rec.Percentile(99), rec.Max(), rec.Jitter())
	}
	return nil
}

// runFaults is the drop% x transport resilience table: every recovery
// layer (RC retransmission, socket RTO, client retry+backoff) active
// over a seeded lossy fabric.
func runFaults(w io.Writer, cfg bench.RunConfig, _ bool) error {
	p := cluster.ClusterB()
	cells, err := bench.FaultSweep(p, p.Transports, []float64{0, 1, 5, 10}, 64, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# fault sweep: 64B gets, cluster B, seeded per-pair drop streams")
	_, err = io.WriteString(w, bench.FaultSweepString(cells))
	return err
}

func runFleet(w io.Writer, cfg bench.RunConfig, quick bool) error {
	pts, err := bench.FleetSweep(cluster.ClusterB(), bench.FleetCounts(quick), cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.FleetTable(pts))
	return err
}

// runWorkloads is the load-generator study (what memslap and a trace
// replayer measured): UCR-IB and IPoIB, cluster B.
func runWorkloads(w io.Writer, cfg bench.RunConfig, _ bool) error {
	rep, err := bench.WorkloadsSweep(cluster.ClusterB(), []cluster.Transport{cluster.UCRIB, cluster.IPoIB}, cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, bench.WorkloadsTable(rep))
	return err
}

func main() {
	var (
		figID     = flag.String("figure", "", "panel id to run (e.g. fig3a); empty = all")
		csv       = flag.Bool("csv", false, "panels as CSV instead of aligned tables")
		speedups  = flag.Bool("speedups", false, "append UCR-vs-baseline speedup factors to each panel")
		studyName = flag.String("study", "", "study to run, or all (see -list); empty = the paper's panels")
		quick     = flag.Bool("quick", false, "with -study fleet or all: stop at N=100 (N=1000 takes six seconds)")
		ops       = flag.Int("ops", 0, "measured operations per point (0 = the study's own count, see -list)")
		stripes   = flag.Int("stripes", 0, "cache-engine lock stripes for panel runs (0 = deployment default)")
		list      = flag.Bool("list", false, "list the studies and the panels, and exit")
	)
	flag.Parse()

	var err error
	switch {
	case *list:
		fmt.Println("studies (-study <name|all>):")
		for _, s := range studies {
			ops := ""
			if s.ops != 0 {
				ops = fmt.Sprintf("-ops %d", s.ops)
			}
			fmt.Printf("  %-10s %-9s %s\n", s.name, ops, s.about)
		}
		fmt.Println("panels (-figure <id>):")
		for _, spec := range bench.Figures {
			fmt.Printf("  %-7s cluster %s  %s\n", spec.ID, spec.Cluster, spec.Title)
		}
	case *studyName == "":
		// The paper's panels: the figures study, narrowed and reshaped by
		// -figure, -csv and -speedups.
		specs := bench.Figures
		if *figID != "" {
			spec, ok := bench.FigureByID(*figID)
			if !ok {
				err = fmt.Errorf("unknown figure %q (try -list)", *figID)
				break
			}
			specs = []bench.FigureSpec{spec}
		}
		cfg := bench.RunConfig{OpsPerPoint: *ops}
		if *ops == 0 {
			cfg.OpsPerPoint = figureOps
		}
		cfg.Deploy.Stripes = *stripes
		err = writeFigures(os.Stdout, specs, cfg, *csv, *speedups)
	default:
		// Unknown until a row matches; then the error of the last row run.
		err = fmt.Errorf("unknown study %q (try -list)", *studyName)
		for _, s := range studies {
			if *studyName == "all" || *studyName == s.name {
				if err = s.write(os.Stdout, *ops, *quick); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
		os.Exit(1)
	}
}
