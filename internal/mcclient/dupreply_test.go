package mcclient

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// TestUCRDuplicateReplyIsolation is the regression test for the tagged
// reply slots: an AM retry can produce two replies for one logical
// request, and the late duplicate lands while a *different* request is
// waiting. With a single shared reply slot and counter the duplicate
// bumps the waiter's counter and overwrites its slot, so the second Get
// returns the first Get's payload. Tagged slots route the duplicate to
// its (long freed) request tag, where it is dropped.
//
// The timeout is chosen so attempt 1 expires just before its reply
// arrives: the retry generates the duplicate, attempt 2 consumes the
// original reply, and the duplicate reaches the client while the next
// Get is blocked.
func TestUCRDuplicateReplyIsolation(t *testing.T) {
	st := newStack(t)
	node := st.nw.AddNode("dup-cli")
	hca := verbs.NewHCA(node, st.fab, verbs.Config{
		PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100,
	})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)

	// A patient transport on the same runtime: populate the keys and
	// measure the steady-state Get round trip.
	warm, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", DefaultBehaviors(), clk)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Set(clk, "a", 0, 0, []byte("payload-A")); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Set(clk, "b", 0, 0, []byte("payload-B")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm the path before timing it
		if _, _, _, ok, err := warm.Get(clk, "a"); err != nil || !ok {
			t.Fatalf("warmup get = (%v, %v)", ok, err)
		}
	}
	t0 := clk.Now()
	if _, _, _, _, err := warm.Get(clk, "a"); err != nil {
		t.Fatal(err)
	}
	rtt := clk.Now() - t0
	if rtt <= 0 {
		t.Fatalf("bad rtt %v", rtt)
	}

	// Victim transport: a per-attempt budget of 0.75x RTT — attempt 1
	// always times out, attempt 2 always sees the original reply.
	b := DefaultBehaviors()
	b.OpTimeout = (1 + amRetries) * 3 * rtt / 4
	victim, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", b, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	va, _, _, ok, err := victim.Get(clk, "a")
	if err != nil || !ok {
		t.Fatalf("Get a = (%v, %v), want retried success", ok, err)
	}
	if string(va) != "payload-A" {
		t.Fatalf("Get a = %q", va)
	}
	// The duplicate reply for "a" is still in flight and arrives during
	// this wait.
	vb, _, _, ok, err := victim.Get(clk, "b")
	if err != nil || !ok {
		t.Fatalf("Get b = (%v, %v)", ok, err)
	}
	if string(vb) != "payload-B" {
		t.Fatalf("Get b returned %q: a duplicate reply for \"a\" was delivered to \"b\"'s slot", vb)
	}
}

// TestLandingOutlivesItsOp: an op that gives up while its reply is still
// landing (a rendezvous read in flight) is not retired — its counter
// keeps naming it, so the late completion finds the op instead of
// handing a buffer the op still points at back to the pool. Once the
// landing is in, the op retires as usual.
func TestLandingOutlivesItsOp(t *testing.T) {
	st := newStack(t)
	tr, _ := st.ucrClient(t)
	defer tr.Close()
	op := tr.newOp(simnet.NewVClock(0))
	tag := op.tag
	if tr.landingBuf(op, 16<<10) == nil {
		t.Fatal("no landing for a 16 KB reply")
	}
	tr.finishOp(op) // the wait gave up with the read in flight
	if c := tr.rt.Counter(tag); c == nil || c.UserData != op {
		t.Fatal("an op with a landing in flight was retired")
	}
	op.landing-- // the read's completion ran
	tr.finishOp(op)
	if tr.rt.Counter(tag) != nil {
		t.Fatal("the op was not retired once its landing was in")
	}
}
