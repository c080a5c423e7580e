package mcclient

import (
	"testing"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Sockets-path allocation gates, the twins of the UCR ones in
// server_alloc_bench_test.go: client encode, sockstream segments and the
// text server's parse → store → reply all run inside the measured call,
// and the count is process-wide.
//
//	go test -bench 'Sock(Get|Set)' -benchmem ./internal/mcclient/

func sockBenchStack(b testing.TB) (*SockTransport, *simnet.VClock, []byte) {
	st := newStack(b)
	tr := st.sockClient(b)
	b.Cleanup(tr.Close)
	clk := simnet.NewVClock(0)
	val := make([]byte, benchValSize)
	// Warm the request scratch, the spare segment lists of both
	// directions and the server connection's staging buffers.
	for i := 0; i < 8; i++ {
		if res, err := tr.Set(clk, "bench", 0, 0, val); err != nil || res != memcached.Stored {
			b.Fatalf("warmup set = (%v, %v)", res, err)
		}
		if _, _, _, ok, err := tr.GetInto(clk, "bench", val[:0]); err != nil || !ok {
			b.Fatalf("warmup get = (%v, %v)", ok, err)
		}
	}
	return tr, clk, val
}

func BenchmarkSockGet(b *testing.B) {
	tr, clk, val := sockBenchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			b.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	}
}

func BenchmarkSockSet(b *testing.B) {
	tr, clk, val := sockBenchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Set(clk, "bench", 0, 0, val); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSocketsGetZeroAlloc: one steady-state GetInto round trip over the
// text protocol allocates nothing on the client, the wire or the server.
func TestSocketsGetZeroAlloc(t *testing.T) {
	tr, clk, val := sockBenchStack(t)
	allocs := testing.AllocsPerRun(200, func() {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			t.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sockets GET path: %v allocs/op, want 0", allocs)
	}
}

// TestSocketsSetZeroAlloc: a same-sized overwrite reuses the request
// scratch, the segment buffers, the interned key and the item header.
func TestSocketsSetZeroAlloc(t *testing.T) {
	tr, clk, val := sockBenchStack(t)
	allocs := testing.AllocsPerRun(200, func() {
		if res, err := tr.Set(clk, "bench", 0, 0, val); err != nil || res != memcached.Stored {
			t.Fatalf("Set = (%v, %v)", res, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sockets SET path: %v allocs/op, want 0", allocs)
	}
}
