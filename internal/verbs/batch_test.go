package verbs

import (
	"testing"

	"repro/internal/simnet"
)

// TestPostSendNChargeDegenerate: a batch of one must cost exactly what
// PostSend costs — the coalesced rate only applies from the second WR on.
func TestPostSendNChargeDegenerate(t *testing.T) {
	p1 := newPair(t, 4, 256)
	before := p1.cliClock.Now()
	if err := p1.cliQP.PostSend(p1.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	single := p1.cliClock.Now() - before

	p2 := newPair(t, 4, 256)
	before = p2.cliClock.Now()
	if err := p2.cliQP.PostSendN(p2.cliClock, []SendWR{{ID: 1, Op: OpSend, Local: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if batched := p2.cliClock.Now() - before; batched != single {
		t.Fatalf("PostSendN(1) advanced %v, PostSend advanced %v", batched, single)
	}
}

// TestPostSendNChargeCoalesced: n WRs ring one doorbell — one full
// PostOverhead plus n-1 coalesced charges, strictly cheaper than n
// separate posts.
func TestPostSendNChargeCoalesced(t *testing.T) {
	p := newPair(t, 8, 256)
	cfg := testConfig().withDefaults()
	wrs := []SendWR{
		{ID: 1, Op: OpSend, Local: []byte("a")},
		{ID: 2, Op: OpSend, Local: []byte("b")},
		{ID: 3, Op: OpSend, Local: []byte("c")},
	}
	before := p.cliClock.Now()
	if err := p.cliQP.PostSendN(p.cliClock, wrs); err != nil {
		t.Fatal(err)
	}
	elapsed := p.cliClock.Now() - before
	want := cfg.PostOverhead + 2*cfg.CoalescedPostOverhead
	if elapsed != want {
		t.Fatalf("PostSendN(3) advanced %v, want %v", elapsed, want)
	}
	if want >= 3*cfg.PostOverhead {
		t.Fatalf("coalesced post %v not cheaper than 3 doorbells %v", want, 3*cfg.PostOverhead)
	}
	// All three land and complete.
	for i := 0; i < 3; i++ {
		if _, ok := p.cliSend.Wait(p.cliClock); !ok {
			t.Fatalf("send completion %d missing", i)
		}
	}
}

// TestPostSendNEmptyAndBadState covers the edges: an empty batch is a
// free no-op, and a QP outside RTS refuses the batch up front.
func TestPostSendNEmptyAndBadState(t *testing.T) {
	p := newPair(t, 4, 256)
	before := p.cliClock.Now()
	if err := p.cliQP.PostSendN(p.cliClock, nil); err != nil {
		t.Fatal(err)
	}
	if p.cliClock.Now() != before {
		t.Fatal("empty batch advanced the clock")
	}

	nw := simnet.NewNetwork()
	n := nw.AddNode("n")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h := NewHCA(n, f, testConfig())
	cq := h.CreateCQ()
	qp := h.NewQP(RC, cq, cq)
	if err := qp.PostSendN(simnet.NewVClock(0), []SendWR{{ID: 1, Op: OpSend, Local: []byte("x")}}); err != ErrBadState {
		t.Fatalf("PostSendN in RESET = %v, want ErrBadState", err)
	}
}

// TestTryPollReadyVisibility: TryPollReady harvests only completions
// whose HCA-side timestamp has already passed, at the coalesced rate; a
// future completion is put back untouched for a later (full-cost) poll.
func TestTryPollReadyVisibility(t *testing.T) {
	p := newPair(t, 4, 256)
	cfg := testConfig().withDefaults()
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 7, Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// The send completion's Time is in this clock's future: refuse.
	if _, ok := p.cliSend.TryPollReady(p.cliClock); ok {
		t.Fatal("TryPollReady harvested a completion from the future")
	}
	// A full-cost blocking poll advances to it.
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.ID != 7 {
		t.Fatalf("Poll = (%+v, %v)", wc, ok)
	}
	// Now a second, already-visible completion drains at the coalesced
	// rate.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 8, Op: OpSend, Local: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	p.cliClock.Advance(10 * simnet.Millisecond)
	before := p.cliClock.Now()
	wc, ok = p.cliSend.TryPollReady(p.cliClock)
	if !ok || wc.ID != 8 {
		t.Fatalf("TryPollReady = (%+v, %v)", wc, ok)
	}
	if got := p.cliClock.Now() - before; got != cfg.PollOverhead/2 {
		t.Fatalf("TryPollReady charged %v, want %v", got, cfg.PollOverhead/2)
	}
	// Empty CQ: refusal is free.
	before = p.cliClock.Now()
	if _, ok := p.cliSend.TryPollReady(p.cliClock); ok {
		t.Fatal("TryPollReady on empty CQ succeeded")
	}
	if p.cliClock.Now() != before {
		t.Fatal("refusal advanced the clock")
	}
}
