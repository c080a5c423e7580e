package memcheck

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ring"
)

// Clean fleet sweep: several seeds of churn-heavy traffic must satisfy
// the exact ownership model, and the replication machinery must
// actually run (vacuity: repairs, key movement, churn all nonzero
// somewhere in the sweep).
func TestFleetCheckClean(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	var sum Counters
	for _, seed := range seeds {
		res := run(Config{Mode: "fleet", Transport: cluster.UCRIB, Seed: seed})
		if res.Violation != nil {
			t.Fatalf("seed %d: %s\n%s", seed, res.Violation.Error(), res.Report)
		}
		sum.Add(&res.Counters)
	}
	if sum.Repairs == 0 {
		t.Fatal("vacuity: no read repair ran in the whole sweep")
	}
	if sum.Moved <= 0 {
		t.Fatal("vacuity: churn moved no keyspace")
	}
	if sum.Churn == 0 {
		t.Fatal("vacuity: no churn events ran")
	}
}

// Lossy fleet sweep: 1% drop with retries; the possibilistic model must
// hold (no stale or foreign value is ever served).
func TestFleetCheckLossy(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res := run(Config{Mode: "fleet", Transport: cluster.UCRIB, Seed: seed, Faults: true})
		if res.Violation != nil {
			t.Fatalf("seed %d: %s\n%s", seed, res.Violation.Error(), res.Report)
		}
	}
}

// Socket transport sanity: the fleet checker is transport-generic.
func TestFleetCheckIPoIB(t *testing.T) {
	res := run(Config{Mode: "fleet", Transport: cluster.IPoIB, Seed: 7})
	if res.Violation != nil {
		t.Fatalf("%s\n%s", res.Violation.Error(), res.Report)
	}
}

// The fleet script grammar round-trips through format/parse.
func TestFleetScriptRoundTrip(t *testing.T) {
	sc := generateFleet(42, GenConfig{})
	text := formatScript(sc)
	back, err := ParseScript(text)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	if formatScript(back) != text {
		t.Fatal("fleet script did not round-trip")
	}
	var churn int
	for _, op := range sc.Ops {
		switch op.Code {
		case OpJoin, OpLeave, OpCrash:
			churn++
		}
	}
	if churn == 0 {
		t.Fatal("generated fleet script has no churn ops")
	}
}

// runMutated flips one seeded-mutation switch for the duration of fn.
func runMutated(t *testing.T, flag *bool, fn func()) {
	t.Helper()
	*flag = true
	defer func() { *flag = false }()
	fn()
}

// mut_ring_stale: clients route by a construction-time ring snapshot.
// The checker must catch it on some seed and shrink the script to a
// replayable repro.
func TestFleetCatchesMutRingStale(t *testing.T) {
	runMutated(t, &ring.MutRingStale, func() {
		caught := false
		for seed := uint64(1); seed <= 6 && !caught; seed++ {
			res := run(Config{Mode: "fleet", Transport: cluster.UCRIB, Seed: seed})
			if res.Violation == nil {
				continue
			}
			caught = true
			if res.Shrunk == nil || len(res.Shrunk.Ops) == 0 {
				t.Fatalf("violation not shrunk: %s", res.Violation.Error())
			}
			if len(res.Shrunk.Ops) >= len(res.Script.Ops) {
				t.Fatalf("shrink made no progress: %d -> %d ops",
					len(res.Script.Ops), len(res.Shrunk.Ops))
			}
			if !strings.Contains(res.Report, "-mode fleet") {
				t.Fatalf("report lacks fleet replay line:\n%s", res.Report)
			}
			// The shrunk script must still fail when replayed.
			rep := runScript(*res.Shrunk, res.Config)
			if rep.Violation == nil {
				t.Fatal("shrunk script no longer fails on replay")
			}
		}
		if !caught {
			t.Fatal("mut_ring_stale survived 6 seeds")
		}
	})
}

// mut_replica_skip: the write-through drops the replica copy. Caught by
// the epilogue probes (the replica misses a key the model says it
// holds) or by a get after the primary departs.
func TestFleetCatchesMutReplicaSkip(t *testing.T) {
	runMutated(t, &ring.MutReplicaSkip, func() {
		caught := false
		for seed := uint64(1); seed <= 6 && !caught; seed++ {
			res := run(Config{Mode: "fleet", Transport: cluster.UCRIB, Seed: seed})
			if res.Violation == nil {
				continue
			}
			caught = true
			if res.Shrunk == nil || len(res.Shrunk.Ops) == 0 {
				t.Fatalf("violation not shrunk: %s", res.Violation.Error())
			}
			rep := runScript(*res.Shrunk, res.Config)
			if rep.Violation == nil {
				t.Fatal("shrunk script no longer fails on replay")
			}
		}
		if !caught {
			t.Fatal("mut_replica_skip survived 6 seeds")
		}
	})
}

// A Mode value's Options reach the fleet's deployment: a fleet row that
// arms write replies (crossover forced under the generator's 4–31 B
// values, as the wrreply row forces its own) must have its members post
// replies as RDMA writes, and still pass, clean and lossy. The parent's
// fleet harness built its own cluster.Options and dropped the row's.
func TestFleetTakesModeOptions(t *testing.T) {
	m := &Mode{
		Name: "fleet+wrreply", Fleet: true,
		Options: func(o *cluster.Options) { o.WriteReplies, o.WriteReplyEager = true, 16 },
	}
	for _, lossy := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			res := m.Run(Config{Transport: cluster.UCRIB, Seed: seed, Faults: lossy}, nil)
			if res.Violation != nil {
				t.Fatalf("lossy=%v seed %d: %s\n%s", lossy, seed, res.Violation.Error(), res.Report)
			}
			if res.WriteReplies == 0 {
				t.Fatalf("lossy=%v seed %d: no fleet member posted a write reply — the mode's Options never reached the deployment (%s)",
					lossy, seed, &res.Counters)
			}
		}
	}
}
