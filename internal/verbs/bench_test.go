package verbs

import "testing"

// BenchmarkSendRecvRoundTrip is a SEND/RECV ping-pong on reservation
// receives: each side posts, polls its receive CQ, returns the landing
// to the CQ's pool and reposts the reservation. vns/op is the client's
// virtual time per round trip.
func BenchmarkSendRecvRoundTrip(b *testing.B) {
	const bufSize = 256
	p := newPair(b, 4, bufSize)
	req, reply := make([]byte, 40), make([]byte, 100)
	rtt := func() {
		if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: req}); err != nil {
			b.Fatal(err)
		}
		wc, ok := p.srvRecv.Wait(p.srvClock)
		if !ok || wc.Status != StatusSuccess {
			b.Fatalf("ping: %+v", wc)
		}
		p.srvRecv.Recycle(wc.Buf)
		if err := p.srvQP.PostRecv(RecvWR{Len: bufSize}); err != nil {
			b.Fatal(err)
		}
		if err := p.srvQP.PostSend(p.srvClock, SendWR{Op: OpSend, Local: reply}); err != nil {
			b.Fatal(err)
		}
		if wc, ok = p.cliRecv.Wait(p.cliClock); !ok || wc.Status != StatusSuccess {
			b.Fatalf("pong: %+v", wc)
		}
		p.cliRecv.Recycle(wc.Buf)
		if err := p.cliQP.PostRecv(RecvWR{Len: bufSize}); err != nil {
			b.Fatal(err)
		}
		p.cliSend.TryPoll()
		p.srvSend.TryPoll()
	}
	rtt() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	t0 := p.cliClock.Now()
	for i := 0; i < b.N; i++ {
		rtt()
	}
	b.ReportMetric(float64(p.cliClock.Now()-t0)/float64(b.N), "vns/op")
}
