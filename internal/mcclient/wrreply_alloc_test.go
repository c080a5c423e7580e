package mcclient

import (
	"testing"

	"repro/internal/simnet"
)

// wrAllocStack is serverBenchStack with the write-based reply path
// armed and a crossover-sized value, so the steady state under
// measurement is the RDMA-write serve path: request parse, pinned
// lookup, gather write into the client's slot, notify, slot landing.
func wrAllocStack(t testing.TB, valSize int) (*UCRTransport, *simnet.VClock, []byte) {
	tr, clk := benchStack(t)
	if err := tr.Arm(clk, false, true); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, valSize)
	for i := 0; i < 8; i++ {
		if _, err := tr.Set(clk, "bench", 0, 0, val); err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok, err := tr.GetInto(clk, "bench", val[:0]); err != nil || !ok {
			t.Fatalf("warmup get = (%v, %v)", ok, err)
		}
	}
	return tr, clk, val
}

// TestServerGetZeroAllocWriteReplies holds the zero-alloc gate with the
// write path engaged: a 4 KB value (past the 1 KB crossover) must serve
// via RDMA write — pin, gather post, notify, slot land — without a
// single allocation on either side of the wire.
func TestServerGetZeroAllocWriteReplies(t *testing.T) {
	tr, clk, val := wrAllocStack(t, 4096)
	base := tr.WriteReplyHits()
	allocs := testing.AllocsPerRun(200, func() {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != 4096 {
			t.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state write-reply GET path: %v allocs/op, want 0", allocs)
	}
	if tr.WriteReplyHits() == base {
		t.Fatal("measured loop never took the write path (vacuous test)")
	}
}

// TestServerGetZeroAllocWriteRepliesEagerFallback: with the arena armed
// but the value below the crossover, the request still advertises a
// window (amGetW) and the server answers with the plain eager reply —
// that fallback lane must stay zero-alloc too.
func TestServerGetZeroAllocWriteRepliesEagerFallback(t *testing.T) {
	tr, clk, val := wrAllocStack(t, benchValSize)
	base := tr.WriteReplyHits()
	allocs := testing.AllocsPerRun(200, func() {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			t.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state eager fallback under armed arena: %v allocs/op, want 0", allocs)
	}
	if tr.WriteReplyHits() != base {
		t.Fatal("sub-crossover value unexpectedly took the write path")
	}
}
