package memcheck

import (
	"testing"

	"repro/internal/cluster"
)

// Clean fleet sweep: several seeds of churn-heavy traffic must satisfy
// the exact ownership model, and the replication machinery must
// actually run (vacuity: repairs, key movement, churn all nonzero
// somewhere in the sweep).
func TestFleetCheckClean(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	var sum Counters
	for _, seed := range seeds {
		res := run(Config{mode: "fleet", Transport: cluster.UCRIB, Seed: seed})
		if res.Violation != nil {
			t.Fatalf("seed %d: %s\n%s", seed, res.Violation.Error(), res.Report)
		}
		sum.Add(&res.Counters)
	}
	if sum.repairs == 0 {
		t.Fatal("vacuity: no read repair ran in the whole sweep")
	}
	if sum.moved <= 0 {
		t.Fatal("vacuity: churn moved no keyspace")
	}
	if sum.churn == 0 {
		t.Fatal("vacuity: no churn events ran")
	}
}

// Lossy fleet sweep: 1% drop with retries; the possibilistic model must
// hold (no stale or foreign value is ever served).
func TestFleetCheckLossy(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res := run(Config{mode: "fleet", Transport: cluster.UCRIB, Seed: seed, Faults: true})
		if res.Violation != nil {
			t.Fatalf("seed %d: %s\n%s", seed, res.Violation.Error(), res.Report)
		}
	}
}

// Socket transport sanity: the fleet checker is transport-generic.
func TestFleetCheckIPoIB(t *testing.T) {
	res := run(Config{mode: "fleet", Transport: cluster.IPoIB, Seed: 7})
	if res.Violation != nil {
		t.Fatalf("%s\n%s", res.Violation.Error(), res.Report)
	}
}

// The fleet script grammar round-trips through format/parse.
func TestFleetScriptRoundTrip(t *testing.T) {
	sc := generateFleet(42, genConfig{})
	text := formatScript(sc)
	back, err := ParseScript(text)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	if formatScript(back) != text {
		t.Fatal("fleet script did not round-trip")
	}
	var churn int
	for _, op := range sc.ops {
		switch op.code {
		case opJoin, opLeave, opCrash:
			churn++
		}
	}
	if churn == 0 {
		t.Fatal("generated fleet script has no churn ops")
	}
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
			if res.writeReplies == 0 {
				t.Fatalf("lossy=%v seed %d: no fleet member posted a write reply — the mode's Options never reached the deployment (%s)",
					lossy, seed, &res.Counters)
			}
		}
	}
}
