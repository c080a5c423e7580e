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
//	go test -bench 'Sock(Get|Set|PipelineGet)' -benchmem ./internal/mcclient/

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
		if _, _, _, ok, err := tr.getInto(clk, "bench", val[:0]); err != nil || !ok {
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
		v, _, _, ok, err := tr.getInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			b.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	}
}

// BenchmarkSockPipelineGet keeps a window of four GETs in flight on one
// sockets connection, each landing in a lent buffer of its slot: past
// the window it waits for the oldest reply before each issue, so spent
// futures are reissued. vns/op is the client's virtual time per GET.
func BenchmarkSockPipelineGet(b *testing.B) {
	const window = 4
	tr, clk, _ := sockBenchStack(b)
	pipe := tr.Pipeline(window)
	var bufs [window][]byte
	var futs [window]*GetFuture
	for i := range bufs {
		bufs[i] = make([]byte, 0, benchValSize)
	}
	wait := func(slot int) {
		if v, _, _, hit, err := futs[slot].Wait(clk); err != nil || !hit || len(v) != benchValSize {
			b.Fatalf("Wait = (%d, %v, %v)", len(v), hit, err)
		}
	}
	get := func(i int) {
		slot := i % window
		if i >= window {
			wait(slot)
		}
		futs[slot] = pipe.StartGetInto(clk, "bench", bufs[slot])
	}
	for i := 0; i < 2*window; i++ { // warm the queues, the spares and the scratch
		get(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t0 := clk.Now()
	for i := 2 * window; i < 2*window+b.N; i++ {
		get(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(clk.Now()-t0)/float64(b.N), "vns/op")
	for slot := range futs {
		wait(slot)
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

// TestSocketsGetZeroAlloc: steady-state GetInto round trips over the
// text protocol allocate nothing on the client, the wire or the server.
func TestSocketsGetZeroAlloc(t *testing.T) {
	tr, clk, val := sockBenchStack(t)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < allocOps; i++ {
			v, _, _, ok, err := tr.getInto(clk, "bench", val[:0])
			if err != nil || !ok || len(v) != benchValSize {
				t.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sockets GET path: %v allocs in %d ops, want 0", allocs, allocOps)
	}
}

// TestSocketsSetZeroAlloc: a same-sized overwrite reuses the request
// scratch, the segment buffers, the interned key and the item header.
func TestSocketsSetZeroAlloc(t *testing.T) {
	tr, clk, val := sockBenchStack(t)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < allocOps; i++ {
			if res, err := tr.Set(clk, "bench", 0, 0, val); err != nil || res != memcached.Stored {
				t.Fatalf("Set = (%v, %v)", res, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sockets SET path: %v allocs in %d ops, want 0", allocs, allocOps)
	}
}
