package memcheck

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
)

var transports = []cluster.Transport{cluster.UCRIB, cluster.IPoIB}

func requirePass(t *testing.T, res *Result) {
	t.Helper()
	if res.Violation != nil {
		if res.Report != "" {
			t.Log(res.Report)
		}
		t.Fatalf("unexpected violation: %s", res.Violation.Error())
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
}

func TestScriptRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, nb := range []bool{false, true} {
			sc := Generate(seed, GenConfig{Clients: 3, Ops: 200, NoBursts: nb})
			text := FormatScript(sc)
			back, err := ParseScript(text)
			if err != nil {
				t.Fatalf("seed %d: parse: %v", seed, err)
			}
			if got := FormatScript(back); got != text {
				t.Fatalf("seed %d: round trip diverged", seed)
			}
		}
	}
}

func TestCleanSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, tr := range transports {
		var batched uint64
		for seed := uint64(1); seed <= 4; seed++ {
			res := Run(Config{Transport: tr, Seed: seed, Ops: 150})
			if res.Violation != nil {
				t.Errorf("%s seed %d:\n%s", tr, seed, res.Report)
			}
			batched += res.BatchedDrains
		}
		// Vacuity guard for the batch-scheduled serving loop: the default
		// mix emits pipelined bursts, so UCR workers must have harvested
		// ≥2 completions in at least one drain somewhere in the sweep —
		// zero would mean the checker exercised a request-at-a-time loop.
		if tr == cluster.UCRIB && batched == 0 {
			t.Error("UCR sweep with bursts recorded no batched CQ drains (batch path vacuous)")
		}
	}
}

// TestOneSidedSeeds sweeps the one-sided GET path, clean and lossy, and
// demands the runs actually exercised it (a sweep where every get fell
// back to the AM path would validate nothing).
func TestOneSidedSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, faults := range []bool{false, true} {
		oneSided := 0
		for seed := uint64(1); seed <= 4; seed++ {
			res := Run(Config{Transport: cluster.UCRIB, Seed: seed, Ops: 150, Faults: faults, Mode: "onesided"})
			if res.Violation != nil {
				t.Errorf("faults=%v seed %d:\n%s", faults, seed, res.Report)
			}
			for _, o := range res.Obs {
				if o.Op.OneSided {
					oneSided++
				}
			}
		}
		if oneSided == 0 {
			t.Errorf("faults=%v: no observation took the one-sided path", faults)
		}
	}
}

// TestSRQSeeds sweeps shared-SRQ serving, clean and lossy, with a
// vacuity guard on the server's demux counter: a sweep where no
// completion was routed through the shared queue validated nothing.
func TestSRQSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, faults := range []bool{false, true} {
		var demux uint64
		for seed := uint64(1); seed <= 4; seed++ {
			res := Run(Config{Transport: cluster.UCRIB, Seed: seed, Ops: 150, Faults: faults, Mode: "srq"})
			if res.Violation != nil {
				t.Errorf("faults=%v seed %d:\n%s", faults, seed, res.Report)
			}
			demux += res.SRQDemux
		}
		if demux == 0 {
			t.Errorf("faults=%v: no completion was demuxed off the shared SRQ", faults)
		}
	}
}

// TestUDSeeds sweeps the hybrid UD small-get mode. Clean runs must
// route gets over the UD endpoint; lossy runs must additionally see
// client-side retransmissions (silent datagram loss is the whole point
// of the UD reliability machinery).
func TestUDSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, faults := range []bool{false, true} {
		var gets, retx uint64
		for seed := uint64(1); seed <= 4; seed++ {
			res := Run(Config{Transport: cluster.UCRIB, Seed: seed, Ops: 150, Faults: faults, Mode: "ud"})
			if res.Violation != nil {
				t.Errorf("faults=%v seed %d:\n%s", faults, seed, res.Report)
			}
			gets += res.Paths.By[mcclient.PathUD].Hits
			retx += res.Paths.By[mcclient.PathUD].Retries
		}
		if gets == 0 {
			t.Errorf("faults=%v: no request rode the UD endpoint", faults)
		}
		if faults && retx == 0 {
			t.Error("faults=true: no UD retransmission happened (vacuous lossy sweep)")
		}
	}
}

func TestBlockingTTLSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, tr := range transports {
		for seed := uint64(10); seed <= 12; seed++ {
			res := Run(Config{Transport: tr, Seed: seed, Ops: 150, NoBursts: true})
			if res.Violation != nil {
				t.Errorf("%s seed %d:\n%s", tr, seed, res.Report)
			}
		}
	}
}

func TestLossySeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, tr := range transports {
		for seed := uint64(20); seed <= 22; seed++ {
			res := Run(Config{Transport: tr, Seed: seed, Ops: 150, Faults: true})
			if res.Violation != nil {
				t.Errorf("%s seed %d:\n%s", tr, seed, res.Report)
			}
		}
	}
}

func TestPressureSeeds(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, tr := range transports {
		for seed := uint64(30); seed <= 31; seed++ {
			res := Run(Config{Transport: tr, Seed: seed, Ops: 300, Pressure: true})
			if res.Violation != nil {
				t.Errorf("%s seed %d:\n%s", tr, seed, res.Report)
			}
			evicts := 0
			for _, r := range res.History {
				if r.Kind == memcached.RecEvict {
					evicts++
				}
			}
			if evicts == 0 {
				t.Errorf("%s seed %d: pressure run recorded no evictions", tr, seed)
			}
		}
	}
}

// sameHistoryTwice runs cfg twice and demands the same history byte for
// byte, every virtual timestamp included.
func sameHistoryTwice(t *testing.T, name string, cfg Config) {
	t.Helper()
	a := Run(cfg)
	requirePass(t, a)
	b := Run(cfg)
	requirePass(t, b)
	if ha, hb := FormatHistory(a.History), FormatHistory(b.History); ha != hb {
		t.Errorf("%s: histories differ across identical runs\n%s", name, firstLineDiff(ha, hb))
	}
}

// TestHistoryDeterminism: two executions of the same seed must produce
// the same history — transitions, their order and every virtual
// timestamp — for blocking workloads and for pipelined bursts alike.
func TestHistoryDeterminism(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	for _, tr := range transports {
		sameHistoryTwice(t, fmt.Sprintf("%s blocking", tr), Config{Transport: tr, Seed: 40, Ops: 150, NoBursts: true})
		sameHistoryTwice(t, fmt.Sprintf("%s bursts", tr), Config{Transport: tr, Seed: 42, Ops: 150})
	}
}

// TestLossySameSeedSameHistory: a lossy run is a pure function of its
// seed too. Drops are drawn from the seed, a wait that lost its reply
// ends at its virtual deadline because the executor saw the simulation
// go idle (not because a host timer fired), and the retry's duplicate
// drains through the server in stamp order on the one calling goroutine.
func TestLossySameSeedSameHistory(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	rows := []Config{{Transport: cluster.UCRIB}, {Transport: cluster.IPoIB}}
	for _, mode := range []string{"ud", "srq", "onesided", "wrreply"} {
		rows = append(rows, Config{Transport: cluster.UCRIB, Mode: mode})
	}
	for _, cfg := range rows {
		cfg.Faults, cfg.Ops = true, 150
		for seed := uint64(1); seed <= 5; seed++ {
			cfg.Seed = seed
			sameHistoryTwice(t, fmt.Sprintf("%s mode=%q seed=%d", cfg.Transport, cfg.Mode, seed), cfg)
		}
	}
}

func firstLineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "line " + la[i] + "\n  vs " + lb[i]
		}
	}
	return "lengths differ"
}

// TestMutationsCaught is the checker's own validation: it only runs in
// a `-tags mut_*` build (see mutations.go) and demands that the active
// mutation is detected within a few seeds on at least one transport.
func TestMutationsCaught(t *testing.T) {
	muts := memcached.ActiveMutations()
	if muts == nil {
		t.Skip("no store mutations active; run with -tags mut_append_nocas (etc.)")
	}
	// Some mutations only fire on an opt-in datapath or the lossy
	// fabric: the mode table says which (the UCR transport is the only
	// one that has them).
	mode, lossy := ModeFor(muts)
	for seed := uint64(1); seed <= 10; seed++ {
		for _, tr := range mode.Transports(transports) {
			for _, nb := range []bool{false, true} {
				if nb && mode.Fleet {
					continue // the fleet workload has no blocking-only shape
				}
				out := mode.Run(Config{Transport: tr, Seed: seed, Ops: 200, NoBursts: nb, Faults: lossy}, nil)
				if out.Violation == nil {
					continue
				}
				if !strings.Contains(out.Report, "seed=") || !strings.Contains(out.Report, "replay:") {
					t.Fatalf("report missing replay info:\n%s", out.Report)
				}
				if out.Shrunk == nil || len(out.Shrunk.Ops) == 0 || len(out.Shrunk.Ops) > len(out.Script.Ops) {
					t.Fatalf("bad shrunk script")
				}
				t.Logf("mutation %v caught: mode=%s transport=%s seed=%d shrunk to %d ops", muts, mode.Name, tr, seed, len(out.Shrunk.Ops))
				return
			}
		}
	}
	t.Fatalf("mutation %v not detected in 10 seeds on any transport", muts)
}

// TestModelCatchesTamperedHistory forges divergences into a genuine
// recorded history and demands the model flags each one — a cheap
// self-test of the checker that needs no mutation build.
func TestModelCatchesTamperedHistory(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	base := Run(Config{Transport: cluster.IPoIB, Seed: 7, Ops: 150})
	requirePass(t, base)

	tamper := func(name string, f func([]*memcached.OpRecord) bool) {
		recs := make([]*memcached.OpRecord, len(base.History))
		for i, r := range base.History {
			c := *r
			recs[i] = &c
		}
		if !f(recs) {
			t.Fatalf("%s: no applicable record found in history", name)
		}
		if CheckModel(recs) == nil {
			t.Errorf("%s: tampered history passed the model", name)
		}
	}

	tamper("stale-get-value", func(recs []*memcached.OpRecord) bool {
		for _, r := range recs {
			if r.Kind == memcached.RecGet && r.Hit {
				r.Value = append([]byte(nil), r.Value...)
				r.Value[0] ^= 0xff
				return true
			}
		}
		return false
	})
	tamper("reused-cas", func(recs []*memcached.OpRecord) bool {
		var first uint64
		for _, r := range recs {
			if r.Kind == memcached.RecSet && r.Res == memcached.Stored {
				if first == 0 {
					first = r.NewCAS
					continue
				}
				r.NewCAS = first
				return true
			}
		}
		return false
	})
	tamper("wrong-expiry", func(recs []*memcached.OpRecord) bool {
		for _, r := range recs {
			if r.Kind == memcached.RecSet && r.Res == memcached.Stored {
				r.ExpireAt = r.SetAt + 1
				return true
			}
		}
		return false
	})
	tamper("phantom-delete", func(recs []*memcached.OpRecord) bool {
		for _, r := range recs {
			if r.Kind == memcached.RecDelete && !r.Hit {
				r.Hit = true
				r.OldCAS = 123456789
				return true
			}
		}
		return false
	})
}

// TestShrink drives the reducer with a synthetic predicate: the
// "failure" needs a set of k03 followed (anywhere) by a delete of k03.
// The shrunk script must be exactly those two ops.
func TestShrink(t *testing.T) {
	sc := Generate(99, GenConfig{Clients: 3, Ops: 120})
	hasPair := func(s Script) bool {
		seenSet := false
		for _, op := range s.Ops {
			if op.Key != "k03" {
				continue
			}
			if op.Code == OpSet {
				seenSet = true
			}
			if op.Code == OpDelete && seenSet {
				return true
			}
		}
		return false
	}
	if !hasPair(sc) {
		// Make the predicate satisfiable regardless of the seed's luck.
		sc.Ops = append(sc.Ops, ScriptOp{Code: OpSet, Key: "k03", Value: []byte("x")},
			ScriptOp{Client: 1, Code: OpDelete, Key: "k03"})
	}
	out := Shrink(sc, hasPair, 400)
	if !hasPair(out) {
		t.Fatal("shrunk script no longer fails")
	}
	if len(out.Ops) > 4 {
		t.Errorf("shrunk to %d ops, want <= 4:\n%s", len(out.Ops), FormatScript(out))
	}
	if out.Clients != 1 {
		t.Errorf("clients not collapsed: %d", out.Clients)
	}
}

func TestReplayFromScriptText(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	cfg := Config{Transport: cluster.UCRIB, Seed: 55, Ops: 80}
	sc := Generate(cfg.Seed, GenConfig{Clients: cfg.Clients, Ops: cfg.Ops})
	text := FormatScript(sc)
	back, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	a := RunScript(sc, cfg)
	requirePass(t, a)
	b := RunScript(back, cfg)
	requirePass(t, b)
	if FormatHistory(a.History) != FormatHistory(b.History) {
		t.Error("replay from formatted script diverged from original")
	}
}
