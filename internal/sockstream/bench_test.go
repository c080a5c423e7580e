package sockstream

import (
	"io"
	"testing"

	"repro/internal/simnet"
)

// BenchmarkSegmentRoundTrip is one 64 B request and its 64 B reply, a
// segment each way: the client writes, the server reads and writes
// back, the client reads. vns/op is the client's virtual time per round
// trip (syscalls, copies, wire).
func BenchmarkSegmentRoundTrip(b *testing.B) {
	cli, srv := connPair(b, newEnv(b))
	cliClk, srvClk := simnet.NewVClock(0), simnet.NewVClock(0)
	cli.SetClock(cliClk)
	srv.SetClock(srvClk)
	req, in, reply := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	rtt := func() {
		if _, err := cli.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(srv, in); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Write(in); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(cli, reply); err != nil {
			b.Fatal(err)
		}
	}
	rtt() // warm the segment pools
	b.ReportAllocs()
	b.ResetTimer()
	t0 := cliClk.Now()
	for i := 0; i < b.N; i++ {
		rtt()
	}
	b.ReportMetric(float64(cliClk.Now()-t0)/float64(b.N), "vns/op")
}
