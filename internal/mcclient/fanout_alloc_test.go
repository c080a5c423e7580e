package mcclient

import (
	"testing"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// fanOutStack dials the write set a replicated write takes: two UCR
// transports and one sockets transport to one server, each warmed by a
// SetAll and a DeleteAll, with the caller's result slots.
func fanOutStack(tb testing.TB) (trs []Transport, clk *simnet.VClock, val []byte, res []memcached.StoreResult, found []bool, errs []error) {
	st := newStack(tb)
	u1, _ := st.ucrClient(tb)
	u2, _ := st.ucrClient(tb)
	sock := st.sockClient(tb)
	trs = []Transport{u1, u2, sock}
	for _, tr := range trs {
		tb.Cleanup(tr.Close)
	}
	clk = simnet.NewVClock(0)
	val = make([]byte, 256)
	res, found, errs = make([]memcached.StoreResult, len(trs)), make([]bool, len(trs)), make([]error, len(trs))
	for i := 0; i < 8; i++ { // warm op pools, landing buffers and segment lists
		SetAll(clk, trs, "fan", 0, 0, val, res, errs)
		DeleteAll(clk, trs, "fan", found, errs)
	}
	return trs, clk, val, res, found, errs
}

// TestFanOutZeroAlloc pins SetAll's promise: a replicated write
// allocates nothing — nor does a replicated delete — over UCR and
// sockets transports alike, each started on the transport's own window.
func TestFanOutZeroAlloc(t *testing.T) {
	trs, clk, val, res, found, errs := fanOutStack(t)
	check := func(op string) {
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s slot %d: %v", op, i, err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < allocOps; i++ {
			SetAll(clk, trs, "fan", 0, 0, val, res, errs)
		}
	}); allocs != 0 {
		t.Errorf("SetAll: %v allocs in %d fan-outs, want 0", allocs, allocOps)
	}
	check("SetAll")
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < allocOps; i++ {
			DeleteAll(clk, trs, "fan", found, errs)
		}
	}); allocs != 0 {
		t.Errorf("DeleteAll: %v allocs in %d fan-outs, want 0", allocs, allocOps)
	}
	check("DeleteAll")
}

// BenchmarkSetAll is one replicated write of 256 B to two UCR servers
// and one sockets server, every request on the wire before any reply is
// waited for. vns/op is the client's virtual time per fan-out.
func BenchmarkSetAll(b *testing.B) {
	trs, clk, val, res, _, errs := fanOutStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	t0 := clk.Now()
	for i := 0; i < b.N; i++ {
		SetAll(clk, trs, "fan", 0, 0, val, res, errs)
		if errs[0] != nil || errs[1] != nil || errs[2] != nil {
			b.Fatalf("SetAll = %v", errs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clk.Now()-t0)/float64(b.N), "vns/op")
}
