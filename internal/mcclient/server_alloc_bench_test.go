package mcclient

import (
	"testing"

	"repro/internal/simnet"
)

// Server-path allocation benchmarks (companion to alloc_bench_test.go,
// which covers the client's lending variants). These drive the full
// stack — client issue, UCR wire, worker-pool serve, reply land — and
// the zero-alloc tests below hard-assert that the steady state GET and
// SET paths allocate nothing anywhere in the process: the measurement
// is a process-wide malloc delta, so a regression on the server's
// parse → store → reply path fails the suite even though the server
// runs on its own goroutines.
//
//	go test -bench 'Server(Get|Set)' -benchmem ./internal/mcclient/

const benchValSize = 512

func serverBenchStack(b testing.TB) (*UCRTransport, *simnet.VClock, []byte) {
	tr, clk := benchStack(b)
	val := make([]byte, benchValSize)
	// Warm the server's per-worker staging and the transport's op/buffer
	// pools: steady state is what the assertions are about.
	for i := 0; i < 8; i++ {
		if _, err := tr.Set(clk, "bench", 0, 0, val); err != nil {
			b.Fatal(err)
		}
		if _, _, _, ok, err := tr.GetInto(clk, "bench", val[:0]); err != nil || !ok {
			b.Fatalf("warmup get = (%v, %v)", ok, err)
		}
	}
	return tr, clk, val
}

func BenchmarkServerGet(b *testing.B) {
	tr, clk, val := serverBenchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			b.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	}
}

func BenchmarkServerSet(b *testing.B) {
	tr, clk, val := serverBenchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Set(clk, "bench", 0, 0, val); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerGetZeroAlloc is the hard gate for the GET serve path: one
// steady-state GetInto round trip — request parse, striped-store read,
// reply build and land — must not allocate on either side of the wire.
func TestServerGetZeroAlloc(t *testing.T) {
	tr, clk, val := serverBenchStack(t)
	allocs := testing.AllocsPerRun(200, func() {
		v, _, _, ok, err := tr.GetInto(clk, "bench", val[:0])
		if err != nil || !ok || len(v) != benchValSize {
			t.Fatalf("GetInto = (%d, %v, %v)", len(v), ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state GET path: %v allocs/op, want 0", allocs)
	}
}

// TestServerSetZeroAlloc is the hard gate for the SET serve path: a
// same-sized overwrite must reuse the item in place on the server and
// the op slot on the client.
func TestServerSetZeroAlloc(t *testing.T) {
	tr, clk, val := serverBenchStack(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tr.Set(clk, "bench", 0, 0, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SET path: %v allocs/op, want 0", allocs)
	}
}

// TestServerDeleteIncrZeroAlloc extends the gates above to the verbs
// that carry only a key: a resident-key incr (the value is rewritten in
// place) and a delete that misses (nothing is linked, so the server has
// no use for the key as a string), each a full client–wire–server round
// trip over UCR and over the text protocol.
func TestServerDeleteIncrZeroAlloc(t *testing.T) {
	ucrTr, ucrClk, _ := serverBenchStack(t)
	sockTr, sockClk, _ := sockBenchStack(t)
	for _, c := range []struct {
		name string
		tr   Transport
		clk  *simnet.VClock
	}{{"ucr", ucrTr, ucrClk}, {"sockets", sockTr, sockClk}} {
		if _, err := c.tr.Set(c.clk, "counter", 0, 0, []byte("1000000")); err != nil {
			t.Fatal(err)
		}
		incr := func() {
			if _, found, bad, err := c.tr.IncrDecr(c.clk, "counter", 1, true); err != nil || !found || bad {
				t.Fatalf("%s incr = (%v, %v, %v)", c.name, found, bad, err)
			}
		}
		deleteMiss := func() {
			if hit, err := c.tr.Delete(c.clk, "no-such-key"); err != nil || hit {
				t.Fatalf("%s delete = (%v, %v)", c.name, hit, err)
			}
		}
		incr() // warm the op slot and reply staging
		deleteMiss()
		if allocs := testing.AllocsPerRun(200, incr); allocs != 0 {
			t.Errorf("%s resident-key incr: %v allocs/op, want 0", c.name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, deleteMiss); allocs != 0 {
			t.Errorf("%s delete miss: %v allocs/op, want 0", c.name, allocs)
		}
	}
}
