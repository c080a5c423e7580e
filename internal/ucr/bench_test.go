package ucr

import (
	"encoding/binary"
	"testing"

	"repro/internal/simnet"
)

// BenchmarkAMRoundTrip is one active-message round trip carrying 64 B
// each way on the echo world: a fresh reply counter, a send, and a wait
// that steps the server actor, whose completion handler answers. The
// reply lands in one reused buffer. vns/op is the client's virtual time
// per round trip.
func BenchmarkAMRoundTrip(b *testing.B) {
	w := newWorld(b, Config{})
	landing := make([]byte, 64)
	w.cliRT.RegisterHandler(midReply, Handler{
		Header: func(*simnet.VClock, *Endpoint, []byte, int, CounterID) []byte { return landing },
	})
	ep := w.dial(b, Reliable)
	hdr, value := make([]byte, 8), make([]byte, 64)
	rtt := func() {
		ctr := w.cliRT.NewCounter()
		binary.LittleEndian.PutUint64(hdr, uint64(ctr.ID()))
		if err := ep.Send(w.cliClk, midRequest, hdr, value, nil, 0, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 1, 0); err != nil {
			b.Fatal(err)
		}
		w.cliRT.FreeCounter(ctr)
	}
	rtt() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	t0 := w.cliClk.Now()
	for i := 0; i < b.N; i++ {
		rtt()
	}
	b.ReportMetric(float64(w.cliClk.Now()-t0)/float64(b.N), "vns/op")
}
