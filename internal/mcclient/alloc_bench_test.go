package mcclient

import (
	"testing"

	"repro/internal/simnet"
)

// Benchmarks for the buffer-lending Get variants: GetInto lands the
// value in a caller-owned buffer (and the transport's reply pool
// absorbs the wire-side landing), so the steady-state hit path stops
// allocating per op. Compare allocs/op:
//
//	go test -bench 'UCRGet|UCRPipeline' -benchmem ./internal/mcclient/

func benchStack(b testing.TB) (*UCRTransport, *simnet.VClock) {
	st := newStack(b)
	tr, _ := st.ucrClient(b)
	b.Cleanup(tr.Close)
	clk := simnet.NewVClock(0)
	if _, err := tr.Set(clk, "bench", 0, 0, make([]byte, 512)); err != nil {
		b.Fatal(err)
	}
	// Warm the transport's buffer pool before measuring.
	if _, _, _, ok, err := tr.Get(clk, "bench"); err != nil || !ok {
		b.Fatalf("warmup = (%v, %v)", ok, err)
	}
	return tr, clk
}

func BenchmarkUCRGet(b *testing.B) {
	tr, clk := benchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, _, ok, err := tr.Get(clk, "bench")
		if err != nil || !ok || len(v) != 512 {
			b.Fatalf("Get = (%d, %v, %v)", len(v), ok, err)
		}
	}
}

func BenchmarkUCRGetInto(b *testing.B) {
	tr, clk := benchStack(b)
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, _, ok, err := tr.GetInto(clk, "bench", buf)
		if err != nil || !ok || len(v) != 512 {
			b.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	}
}

func BenchmarkUCRGetMulti(b *testing.B) {
	tr, clk := benchStack(b)
	keys := []string{"bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := tr.GetMulti(clk, keys)
		if err != nil || len(got) != 1 {
			b.Fatalf("GetMulti = (%v, %v)", got, err)
		}
	}
}

// BenchmarkUCRPipelineGetInto4K keeps a window of four 4 KB GETs in
// flight on one connection, each landing in a lent buffer of its slot:
// before each issue past the window it waits for the oldest reply, so
// the window slides. The value is eager (under the 8 KB threshold), so
// copies, link serialization and CQ batching do the work. vns/op is the
// client's virtual time per GET.
func BenchmarkUCRPipelineGetInto4K(b *testing.B) {
	const window, size = 4, 4096
	st := newStack(b)
	tr, _ := st.ucrClient(b)
	b.Cleanup(tr.Close)
	clk := simnet.NewVClock(0)
	if _, err := tr.Set(clk, "bench4k", 0, 0, make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	pipe := tr.Pipeline(window)
	var bufs [window][]byte
	var futs [window]*GetFuture
	for i := range bufs {
		bufs[i] = make([]byte, 0, size)
	}
	wait := func(slot int) {
		if v, _, _, hit, err := futs[slot].Wait(clk); err != nil || !hit || len(v) != size {
			b.Fatalf("Wait = (%d, %v, %v)", len(v), hit, err)
		}
	}
	get := func(i int) {
		slot := i % window
		if i >= window {
			wait(slot)
		}
		futs[slot] = pipe.StartGetInto(clk, "bench4k", bufs[slot])
	}
	for i := 0; i < 2*window; i++ { // warm the op and buffer pools
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
