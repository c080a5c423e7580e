package ucr

import (
	"testing"

	"repro/internal/simnet"
)

// TestOneSidedZeroLengthAtEdge issues zero-length Get/Put exactly at the
// window boundary: offset == Len with no bytes is in bounds and must
// complete (bump the counter) rather than error or hang.
func TestOneSidedZeroLengthAtEdge(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	desc := win.Desc()

	ctr := w.cliRT.NewCounter()
	if err := ep.Get(w.cliClk, nil, desc, 64, ctr); err != nil {
		t.Fatalf("zero-length Get at edge: %v", err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 1, 0); err != nil {
		t.Fatalf("zero-length Get did not complete: %v", err)
	}
	if err := ep.Put(w.cliClk, []byte{}, desc, 64, ctr); err != nil {
		t.Fatalf("zero-length Put at edge: %v", err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 2, 0); err != nil {
		t.Fatalf("zero-length Put did not complete: %v", err)
	}
	// One byte past the edge is out of bounds.
	if err := ep.Get(w.cliClk, make([]byte, 1), desc, 64, nil); err != ErrWindowBounds {
		t.Fatalf("one past edge err = %v, want ErrWindowBounds", err)
	}
}

// TestOneSidedWindowClosedMidSequence closes the window between two
// reads of a multi-read sequence: the first completes, the second fails
// cleanly (endpoint marked down, no pending-op leak) instead of
// returning stale data.
func TestOneSidedWindowClosedMidSequence(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	buf := make([]byte, 64)
	copy(buf, "live")
	win, err := w.srvRT.CreateWindow(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := win.Desc()

	local := make([]byte, 4)
	ctr := w.cliRT.NewCounter()
	if err := ep.Get(w.cliClk, local, desc, 0, ctr); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 1, 0); err != nil {
		t.Fatal(err)
	}
	if string(local) != "live" {
		t.Fatalf("first read = %q", local)
	}

	win.Close() // revoked mid-sequence
	if err := ep.Get(w.cliClk, local, desc, 0, ctr); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 2, 100*simnet.Microsecond); err == nil {
		t.Fatal("read after close should not complete")
	}
	if !ep.Failed() {
		t.Fatal("endpoint should be marked failed")
	}
	if n := w.cliCtx.inFlight(wrOneSided); n != 0 {
		t.Fatalf("leaked %d one-sided WR entries", n)
	}
}

// TestOneSidedFailureLeavesNoPending drives several one-sided ops into
// a dead window and checks the pending-op table is empty afterwards —
// the map must not grow forever under fault injection.
func TestOneSidedFailureLeavesNoPending(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := win.Desc()
	win.Close()

	ctr := w.cliRT.NewCounter()
	for i := 0; i < 4; i++ {
		if ep.Failed() {
			break
		}
		if err := ep.Get(w.cliClk, make([]byte, 8), desc, 0, ctr); err != nil {
			break
		}
		_ = w.cliCtx.WaitCounter(w.cliClk, ctr, uint64(i+1), 100*simnet.Microsecond)
	}
	// Atomics against the dead window: the wait-side cleanup must remove
	// the entry even though no success completion ever bumps the counter.
	if _, err := ep.FetchAdd(w.cliClk, desc, 0, 1); err == nil {
		t.Fatal("atomic against closed window should fail")
	}
	if n := w.cliCtx.inFlight(wrOneSided); n != 0 {
		t.Fatalf("leaked %d one-sided WR entries", n)
	}
}

// TestAtomicOnFailedEndpointIsPrompt checks the atomic wait notices the
// endpoint failing (error-status completion, which bumps no counter)
// promptly and cleans up, rather than spinning to the silence cap.
func TestAtomicOnFailedEndpointIsPrompt(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := win.Desc()
	win.Close()

	if _, err := ep.FetchAdd(w.cliClk, desc, 0, 1); err != ErrEndpointDown {
		t.Fatalf("err = %v, want ErrEndpointDown", err)
	}
	if n := w.cliCtx.inFlight(wrOneSided); n != 0 {
		t.Fatalf("leaked %d one-sided WR entries", n)
	}
	// Further atomics fail fast on the downed endpoint.
	if _, err := ep.FetchAdd(w.cliClk, desc, 0, 1); err != ErrEndpointDown {
		t.Fatalf("second err = %v, want ErrEndpointDown", err)
	}
}

// TestRegCacheEvictionDefersDereg pins the refcounting behaviour: a
// FIFO-evicted entry with an operation still in flight keeps its MR
// registered until the last reference is released.
func TestRegCacheEvictionDefersDereg(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 512, RegCacheEntries: 1})
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)

	mrA, err := w.cliRT.registerCached(bufA, w.cliClk)
	if err != nil {
		t.Fatalf("registerCached A: %v", err)
	}
	// B evicts A from the FIFO while A still holds a reference.
	if _, err := w.cliRT.registerCached(bufB, w.cliClk); err != nil {
		t.Fatal(err)
	}
	rc := w.cliRT.regs
	rc.mu.Lock()
	eA := rc.byMR[mrA]
	deferred := rc.deferredDeregs
	rc.mu.Unlock()
	if eA == nil || !eA.evicted || eA.refs != 1 {
		t.Fatalf("evicted-but-busy entry = %+v", eA)
	}
	if deferred != 1 {
		t.Fatalf("deferredDeregs = %d, want 1", deferred)
	}
	// The last release performs the deferred deregistration.
	w.cliRT.releaseCached(mrA)
	rc.mu.Lock()
	gone := rc.byMR[mrA] == nil
	rc.mu.Unlock()
	if !gone {
		t.Fatal("released evicted entry should be deregistered and dropped")
	}
}

// TestRegCacheInFlightEviction is the end-to-end version: two
// back-to-back rendezvous sends with a one-entry cache, so the second
// send evicts the first's MR while the target may still be reading it.
// Both transfers must complete intact.
func TestRegCacheInFlightEviction(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 512, RegCacheEntries: 1})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	bufA := make([]byte, 8192)
	bufB := make([]byte, 8192)
	for i := range bufA {
		bufA[i] = byte(i)
		bufB[i] = byte(i * 7)
	}
	origin := w.cliRT.NewCounter()
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), bufA, origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), bufB, origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, origin, 2, 0); err != nil {
		t.Fatalf("in-flight-evicted rendezvous failed: %v", err)
	}
	if n := len(w.cliCtx.rndzOrigin); n != 0 {
		t.Fatalf("leaked %d rndzOrigin entries", n)
	}
}
