// mccheck sweeps the memcheck model checker over seeds and transports:
// randomized workloads run against the real server stack in virtual
// time, the recorded history is checked against a reference model, and
// any violation is shrunk to a minimal replayable script.
//
// What a sweep arms and drives is one row of the mode table
// (internal/memcheck.Modes; -list-modes prints it): the default
// deployment, an opt-in datapath (onesided, srq, ud, wrreply) or the
// replicated fleet. Each row brings its own vacuity guards — a run that
// never drove what it armed fails. -nobursts and -pressure shape the
// generated workload and compose with any single-server row.
//
// The checker's own validation is the mutant table in mutants_test.go:
// each row is a seeded bug written as exact source edits, which
// `make mutations` overlays on a build of this command (go build
// -overlay) before it sweeps the row's mode with -expect-violation.
//
// Typical uses:
//
//	go run ./cmd/mccheck -seeds 50                            # default mode, both transports
//	go run ./cmd/mccheck -mode ud -seeds 50 -faults           # a datapath mode, lossy fabric
//	go run ./cmd/mccheck -mode fleet -seeds 50                # fleet-mode sweep
//	go run ./cmd/mccheck -mode all -seeds 50 [-faults]        # every row (make memcheck)
//	go run ./cmd/mccheck -transport UCR-IB -seed 17 -faults   # replay one seed
//	go run ./cmd/mccheck -transport IPoIB -script repro.txt   # replay a shrunk script
//	make mutations                                            # every mutant caught
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/memcheck"
)

func main() {
	var (
		modeName  = flag.String("mode", "", "row of the mode table to run, or all (see -list-modes; empty: the default row)")
		listModes = flag.Bool("list-modes", false, "print the mode table, one row per line (its name, then what it arms), and exit")
		transport = flag.String("transport", "both", "UCR-IB, IPoIB, or both (narrowed to the wires the mode sweeps)")
		seeds     = flag.Int("seeds", 0, "sweep seeds 1..N (mutually exclusive with -seed)")
		seed      = flag.Uint64("seed", 1, "single seed to run")
		faults    = flag.Bool("faults", false, "lossy fabric (1% drop) with client retries")
		pressure  = flag.Bool("pressure", false, "small cache, large values: constant LRU eviction")
		nobursts  = flag.Bool("nobursts", false, "blocking ops only, TTL mix enabled")
		servers   = flag.Int("servers", 0, "fleet mode: initial member count (default 4)")
		clients   = flag.Int("clients", 0, "client count (default 3)")
		ops       = flag.Int("ops", 0, "ops per script (default 400; fleet 300)")
		script    = flag.String("script", "", "replay a script file instead of generating from the seed")
		expect    = flag.Bool("expect-violation", false, "invert exit status: fail unless a violation is found (mutant builds)")
		verbose   = flag.Bool("v", false, "print a line per run")
	)
	flag.Parse()

	if *listModes {
		for _, m := range memcheck.Modes {
			fmt.Printf("%-9s %s\n", m.Name, m.Doc)
		}
		return
	}

	var trs []cluster.Transport
	switch *transport {
	case "both":
		trs = []cluster.Transport{cluster.UCRIB, cluster.IPoIB}
	case string(cluster.UCRIB), string(cluster.IPoIB):
		trs = []cluster.Transport{cluster.Transport(*transport)}
	default:
		fmt.Fprintf(os.Stderr, "mccheck: unknown transport %q\n", *transport)
		os.Exit(2)
	}

	mode, err := memcheck.ModeByName(*modeName)
	// The rows to sweep: the one named, or with -mode all every row that
	// runs over a requested wire — each reported, one failure failing the
	// walk.
	modes := []*memcheck.Mode{mode}
	if *modeName == "all" {
		modes, err = nil, nil
		for i := range memcheck.Modes {
			if m := &memcheck.Modes[i]; len(m.Transports(trs)) > 0 {
				modes = append(modes, m)
			}
		}
	} else if err == nil && len(mode.Transports(trs)) == 0 {
		err = fmt.Errorf("mode %s does not run over %s", mode.Name, *transport)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mccheck: %v\n", err)
		os.Exit(2)
	}

	var replay *memcheck.Script
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err == nil {
			var sc memcheck.Script
			if sc, err = memcheck.ParseScript(string(text)); err == nil {
				replay = &sc
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mccheck: %s: %v\n", *script, err)
			os.Exit(2)
		}
	}

	seedList := []uint64{*seed}
	if *seeds > 0 {
		seedList = seedList[:0]
		for s := uint64(1); s <= uint64(*seeds); s++ {
			seedList = append(seedList, s)
		}
	}

	failed := false
sweep:
	for _, mode := range modes {
		var sum memcheck.Counters
		for _, tr := range mode.Transports(trs) {
			for _, s := range seedList {
				out := mode.Run(memcheck.Config{
					Transport: tr, Seed: s, Faults: *faults, Pressure: *pressure, NoBursts: *nobursts,
					Servers: *servers, Clients: *clients, Ops: *ops,
				}, replay)
				sum.Add(&out.Counters)
				if out.Violation != nil {
					fmt.Print(out.Report)
					if *expect {
						// One confirmed detection is enough for a mutant build.
						fmt.Printf("mccheck: violation found as expected (mode=%s transport=%s seed=%d)\n", mode.Name, tr, s)
						os.Exit(0)
					}
					failed = true
					continue sweep
				}
				if *verbose {
					fmt.Printf("mccheck: PASS mode=%s transport=%s seed=%d %s\n", mode.Name, tr, s, out.Detail)
				}
			}
		}
		// Vacuity guards: a sweep that armed a datapath but never drove it
		// validated nothing — fail loudly rather than report a hollow PASS.
		what := mode.Vacuous(&sum, *faults, !*nobursts && replay == nil)
		switch {
		case *expect:
			fmt.Printf("mccheck: FAIL: expected a violation, %d runs all passed\n", sum.Runs)
		case what != "":
			fmt.Printf("mccheck: FAIL: mode %s recorded no %s (vacuous sweep; %s)\n", mode.Name, what, &sum)
		default:
			fmt.Printf("mccheck: PASS %d runs (mode=%s, %s, seeds=%d, faults=%v, pressure=%v, nobursts=%v; %s)\n",
				sum.Runs, mode.Name, *transport, len(seedList), *faults, *pressure, *nobursts, &sum)
			continue
		}
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
