package memcached

import (
	"testing"

	"repro/internal/simnet"
)

// Layer benchmarks for the engine: one costed op each, on a store priced
// the way a Server prices its own (opCost per command, copyRate for
// bytes copied under the lock). The serving thread advances its clock
// by opCost per op, as a worker does, so vns/op is that cost plus any
// lock wait: with one thread and no I/O cost between ops, only a hold
// longer than opCost (the text get's copy) waits, for its excess.

const (
	benchOpCost   = 2200 * simnet.Nanosecond
	benchCopyRate = 5e9
)

func costedStore(b *testing.B) *Store {
	b.Helper()
	s := NewStore(StoreConfig{})
	s.opCost, s.copyRate = benchOpCost, benchCopyRate
	if res := s.Set("bench-key", 0, 0, make([]byte, 64), 0); res != Stored {
		b.Fatal(res)
	}
	return s
}

// BenchmarkChargedGet is the UCR GET's engine step: a lookup booked
// first on its stripe, the pin the reply is served from, and its
// release.
func BenchmarkChargedGet(b *testing.B) {
	s := costedStore(b)
	key, clk := []byte("bench-key"), simnet.NewVClock(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, ok := s.getPinned(key, chargeFirst(clk))
		if !ok {
			b.Fatal("miss")
		}
		s.unpin(it)
		clk.Advance(benchOpCost)
	}
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vns/op")
}

// BenchmarkChargedSet is the UCR SET's engine steps: the header
// handler's allocation, the value landing in slab memory, and the
// commit booked first on its stripe.
func BenchmarkChargedSet(b *testing.B) {
	s := costedStore(b)
	key, value, clk := []byte("bench-key"), make([]byte, 64), simnet.NewVClock(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, res := s.allocateItem(key, 0, 0, len(value), clk.Now())
		if res != Stored {
			b.Fatal(res)
		}
		copy(it.value, value)
		s.commitItem(it, chargeFirst(clk))
		clk.Advance(benchOpCost)
	}
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vns/op")
}

// replayStream reads one request over and over and discards what is
// written to it: a connection whose client always sends the same line.
type replayStream struct {
	req []byte
	off int
}

func (r *replayStream) Read(p []byte) (int, error) {
	n := copy(p, r.req[r.off:])
	r.off = (r.off + n) % len(r.req)
	return n, nil
}

func (*replayStream) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTextGetServe serves one text `get` of a 64 B value: parse,
// the lookup with the value copied out under the lock (booked after it),
// and the reply build.
func BenchmarkTextGetServe(b *testing.B) {
	s := costedStore(b)
	pc := NewProtoConn(&replayStream{req: []byte("get bench-key\r\n")}, s)
	clk := simnet.NewVClock(0)
	serve := func() {
		if quit, err := pc.ServeOne(clk); quit || err != nil {
			b.Fatal(quit, err)
		}
		clk.Advance(benchOpCost)
	}
	serve() // size the staging buffers
	b.ReportAllocs()
	b.ResetTimer()
	t0 := clk.Now()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(clk.Now()-t0)/float64(b.N), "vns/op")
}
