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
//	go test -bench 'UCRGet' -benchmem ./internal/mcclient/

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
