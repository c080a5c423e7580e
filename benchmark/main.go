// Command benchmark is the repo's benchmark: five closed-loop workloads
// measured end to end on two clocks (virtual time charged by the cost
// model, host time of the Go code), plus a traced pass and per-layer
// probes that say where the time goes. See README.md.
//
// Driver mode, one workload per process and one JSON line on stdout:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// Without --workload it runs the whole suite at its fixed op counts and
// prints every metric by name; -selfcheck runs the suite three times and
// compares the runs against the benchmark's own bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print one JSON result line (driver mode)")
		seed      = flag.Uint64("seed", 42, "derives keys, Zipf draws and the set/get schedule")
		seconds   = flag.Int("seconds", 0, "keep taking host-time samples until this many host seconds have passed; 0 stops after the fixed rounds")
		traced    = flag.Int("trace", 0, "driver mode: 1 reports the per-layer metrics from a traced pass and layer probes")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite three times (seed, seed, seed+1) and compare against the bounds")
	)
	flag.Parse()
	// One P: every client→worker→client hand-off then stays on one OS
	// thread. With two, each hand-off is a cross-thread wake-up whose
	// cost on a small VM swings host ns/op by ±15% from run to run (±1%
	// with one), and nothing in a closed loop stepped from one goroutine
	// runs in parallel anyway.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, limit: time.Duration(*seconds) * time.Second, scale: 1, outDir: filepath.Join("benchmark", "out")}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg)
	case *name == "":
		err = runSuite(cfg)
	default:
		err = runDriver(*name, *traced != 0, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type config struct {
	seed   uint64
	limit  time.Duration // host time to fill with extra host-time samples; 0: none
	scale  int           // divides every op count; 1 except in the smoke test
	outDir string        // where trace-<workload>.jsonl goes
}

// result is one run's outcome in the driver's terms.
type result struct {
	attempted, failed int
	values            values
	roundNsOp         []float64 // untraced host ns per op, one per round; end-to-end runs: at reference speed
	rawNsOp           []float64 // end-to-end runs: the same samples as the host clock read them
}

func runDriver(name string, traced bool, cfg config) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if !traced {
		res, err := runEndToEnd(w, cfg)
		if err != nil {
			return err
		}
		return emit(res, endToEnd)
	}
	tr, err := runTraced(w, cfg)
	if err != nil {
		return err
	}
	return emit(&tr.result, perLayer)
}

func roundOps(w *workload, scale int) int {
	return max(w.Ops/rounds/scale, w.Clients)
}

// runEndToEnd measures the untraced closed loop in rounds and reports
// the end-to-end metrics. The first rounds rounds — the same ops on
// every host and every commit — give everything that is counted:
// virtual time, allocations, bytes, and the live heap at the end of the
// last of them. Host time is sampled once per round; with a time limit
// further rounds run until it is up and add host-time samples only, so a
// faster host or simulator gets a steadier wall_ns_per_op and the same
// virtual numbers. Host-time metrics are the median over rounds of the
// round's sample at reference speed (see hostRef).
func runEndToEnd(w *workload, cfg config) (*result, error) {
	in := newInputs(w, cfg.seed)
	total := newTally()
	ref := newHostRef()
	var setupS, nsOp, rawNsOp []float64
	var ops, attempted, failed int
	var makespan simnet.Duration
	var mallocs, bytes uint64
	var heapMB float64
	begin := time.Now()
	for n := 1; n <= rounds || time.Since(begin) < cfg.limit; n++ {
		runtime.GC() // every setup starts from a collected heap
		t0 := time.Now()
		r, err := setup(w, in)
		if err != nil {
			return nil, err
		}
		setupT := time.Since(t0).Seconds()
		p := r.measure(roundOps(w, cfg.scale), ref)
		speed := hostSpeed(p.passes)
		setupS, nsOp, rawNsOp = append(setupS, setupT*speed), append(nsOp, p.nsPerOp()*speed), append(rawNsOp, p.nsPerOp())
		attempted, failed = attempted+p.ops, failed+p.tally.failed()
		if n <= rounds {
			ops, makespan, mallocs, bytes = ops+p.ops, makespan+p.makespan, mallocs+p.mallocs, bytes+p.bytes
			total.merge(&p.tally)
		}
		if n == rounds {
			// The reference loop's 2 MB must not count as the system's heap.
			ref = nil
			heapMB = r.liveHeapMB()
			ref = newHostRef()
		}
		r.close()
	}
	return &result{
		attempted: attempted, failed: failed, roundNsOp: nsOp, rawNsOp: rawNsOp,
		values: values{
			"model_ktps":        float64(ops) / makespan.Seconds() / 1e3,
			"model_get_mean_us": total.getLat.mean() / 1e3,
			"wall_ns_per_op":    median(nsOp),
			"allocs_per_op":     float64(mallocs) / float64(ops),
			"bytes_per_op":      float64(bytes) / float64(ops),
			"live_heap_mb":      heapMB,
			"setup_s":           median(setupS),
		},
	}, nil
}

// tracedResult is a traced run: the per-layer values plus what the
// suite report prints beside them.
type tracedResult struct {
	result
	spans      [numSpanKinds]spanStat
	tracedOps  int
	spanFile   string
	wallPerOp  float64 // untraced round, host ns
	modelPerOp float64 // untraced round, virtual makespan over ops
}

// tracePairs is how many untraced/traced round pairs give the traced
// run's counted numbers (latency percentiles, counters, spans). With a
// time limit further pairs run for six tenths of it and add samples of
// host time and tracing overhead only; the rest is left to the probes.
const tracePairs = 3

// runTraced reports the per-layer metrics. It runs pairs of rounds on
// fresh deployments, the same ops from the same seed first untraced and
// then with spans recorded, so their host-time difference is the tracing
// overhead (median over pairs). Public counters are read around each
// traced round and those and the spans of pair tracePairs are kept; then
// the layer probes run with the workload's message sizes.
func runTraced(w *workload, cfg config) (*tracedResult, error) {
	inU, inT := newInputs(w, cfg.seed), newInputs(w, cfg.seed)
	out := values{}
	lat := newTally()
	var nsOp, overhead []float64
	var ops, attempted, failed int
	var makespan simnet.Duration
	var pt *phase
	var rec *recorder
	begin := time.Now()
	for n := 1; n <= tracePairs || time.Since(begin) < cfg.limit*6/10; n++ {
		r, err := setup(w, inU)
		if err != nil {
			return nil, err
		}
		pu := r.measure(roundOps(w, cfg.scale), nil)
		r.close()
		counted := n <= tracePairs
		sink := out
		if !counted {
			sink = values{}
		}
		p, rc, err := tracedRound(w, inT, pu.ops, sink)
		if err != nil {
			return nil, err
		}
		nsOp, overhead = append(nsOp, pu.nsPerOp()), append(overhead, p.nsPerOp()/pu.nsPerOp()-1)
		attempted, failed = attempted+pu.ops+p.ops, failed+pu.tally.failed()+p.tally.failed()
		if counted {
			pt, rec = p, rc
			ops, makespan = ops+pu.ops, makespan+pu.makespan
			// Recording spans charges no virtual time, so traced and untraced
			// latencies pool: ten samples beyond p99.9 even from one pair of
			// the shortest round (fleet4_r2_mix, 2 × 5333 GETs).
			lat.merge(&pu.tally)
			lat.merge(&p.tally)
		}
	}

	sh := shapeOf(inT)
	probeSimnet(sh, out)
	probeVerbs(sh, out)
	probeUCR(sh, out)
	probeSockstream(sh, out)
	probeMemcached(inT, sh, out)
	probeRing(inT, out)
	probePaper(cfg.seed, out)
	sp := probeStack(w, sh, out)
	fp := probeFleet(inT, cfg.seed)
	out["cluster.fleet_self_wall_ns"] = fp.selfWall
	if w.Kind != kindFleet {
		// No fleet client in this workload: the small probe fleet stands
		// in, so the routed path is watched on every run.
		fleetMetrics(cluster.FleetClientStats{}, fp.stats, out)
	}

	spans := rec.summarize()
	wallPerOp, modelPerOp := median(nsOp), float64(makespan)/float64(ops)
	out["benchmark.model_get_p50_us"] = lat.getLat.quantile(0.5) / 1e3
	out["benchmark.model_get_p999_us"] = lat.getLat.quantile(0.999) / 1e3
	out["benchmark.model_set_p50_us"] = lat.setLat.quantile(0.5) / 1e3
	out["benchmark.model_set_p999_us"] = lat.setLat.quantile(0.999) / 1e3
	out["benchmark.trace_overhead_frac"] = median(overhead)
	attribute(w, sp, spans, wallPerOp, modelPerOp, out)

	path := filepath.Join(cfg.outDir, "trace-"+w.Name+".jsonl")
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return &tracedResult{
		result: result{attempted: attempted, failed: failed, values: out, roundNsOp: nsOp},
		spans:  spans, tracedOps: pt.ops, spanFile: path, wallPerOp: wallPerOp, modelPerOp: modelPerOp,
	}, nil
}

// tracedRound runs one round of ops ops with spans recorded and writes
// the counter-derived per-layer metrics of that round into out.
func tracedRound(w *workload, in *inputs, ops int, out values) (*phase, *recorder, error) {
	r, err := setup(w, in)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	rec := newRecorder(ops)
	for _, s := range r.steppers {
		if err := s.trace(rec); err != nil {
			return nil, nil, err
		}
	}
	c0 := r.snapshot()
	p := r.measure(ops, nil)
	c1 := r.snapshot()
	if err := rec.check(); err != nil {
		return nil, nil, fmt.Errorf("span invariant: %w", err)
	}
	counterMetrics(r, c0, c1, p, out)
	if w.Kind == kindFleet {
		fleetMetrics(c0.fleet, c1.fleet, out)
	}
	r.close()
	out["ucr.batched_drains_per_op"] = r.drainsPerOp(p.ops)
	return p, rec, nil
}

// emit prints the driver's result line: the last line of stdout.
func emit(res *result, names []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]mv{}}
	for _, m := range names {
		v, ok := res.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = mv{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
