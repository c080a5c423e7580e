package sockstream

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

type env struct {
	nw   *simnet.Network
	fab  *simnet.Fabric
	prov *Provider
	a, b *simnet.Node
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{}
	e.nw = simnet.NewNetwork()
	e.a = e.nw.AddNode("a")
	e.b = e.nw.AddNode("b")
	e.fab = e.nw.AddFabric(simnet.FabricSpec{
		Name:            "eth",
		LinkBytesPerSec: 1e9,
		Propagation:     500,
		SwitchDelay:     200,
	})
	e.fab.Attach(e.a)
	e.fab.Attach(e.b)
	e.prov = &Provider{
		Name:            "test-tcp",
		Fabric:          e.fab,
		SendSyscall:     1000,
		RecvSyscall:     1500,
		SendCopies:      1,
		RecvCopies:      1,
		CopyBytesPerSec: 2e9,
		SegmentSize:     1460,
		PerSegment:      100,
		WireHeader:      66,
		ConnSetup:       2000,
		NagleDelay:      40 * simnet.Microsecond,
	}
	return e
}

// connPair dials a→b and returns both conns with fresh clocks.
func connPair(t *testing.T, e *env) (cli, srv *Conn) {
	t.Helper()
	lis, err := e.prov.Listen(e.b, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srvClk := simnet.NewVClock(0)
	done := make(chan *Conn, 1)
	go func() {
		c, ok := lis.Accept(srvClk)
		if !ok {
			done <- nil
			return
		}
		done <- c
	}()
	cliClk := simnet.NewVClock(0)
	cli, err = e.prov.Dial(e.a, e.b, "svc", cliClk, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv = <-done
	if srv == nil {
		t.Fatal("accept failed")
	}
	cli.NoDelay = true
	srv.NoDelay = true
	return cli, srv
}

func TestDialRefused(t *testing.T) {
	e := newEnv(t)
	clk := simnet.NewVClock(0)
	if _, err := e.prov.Dial(e.a, e.b, "nobody", clk, time.Second); err != ErrRefusedConn {
		t.Fatalf("err = %v, want ErrRefusedConn", err)
	}
}

func TestDialTimeout(t *testing.T) {
	e := newEnv(t)
	lis, err := e.prov.Listen(e.b, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	clk := simnet.NewVClock(0)
	if _, err := e.prov.Dial(e.a, e.b, "svc", clk, 20*time.Millisecond); err != ErrDialTimeout {
		t.Fatalf("err = %v, want ErrDialTimeout", err)
	}
}

func TestDialChargesHandshake(t *testing.T) {
	e := newEnv(t)
	lis, _ := e.prov.Listen(e.b, "svc")
	defer lis.Close()
	go func() {
		clk := simnet.NewVClock(0)
		lis.Accept(clk)
	}()
	clk := simnet.NewVClock(0)
	if _, err := e.prov.Dial(e.a, e.b, "svc", clk, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// At minimum: one RTT (2×(prop+switch) = 1400) + ConnSetup 2000.
	if clk.Now() < 3400 {
		t.Fatalf("handshake charged only %v", clk.Now())
	}
}

func TestDuplicateListen(t *testing.T) {
	e := newEnv(t)
	lis, err := e.prov.Listen(e.b, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, err := e.prov.Listen(e.b, "svc"); err == nil {
		t.Fatal("duplicate Listen should fail")
	}
	// Same service on a different node is fine.
	l2, err := e.prov.Listen(e.a, "svc")
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

func TestWriteReadRoundtrip(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	msg := []byte("GET foo\r\n")
	if n, err := cli.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	buf := make([]byte, 64)
	n, err := srv.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("read %q", buf[:n])
	}
	// The receiver's clock advanced past the arrival time.
	if srv.Clock().Now() <= cli.Clock().Now()-2000 {
		t.Fatalf("clocks implausible: cli=%v srv=%v", cli.Clock().Now(), srv.Clock().Now())
	}
}

func TestLargeWriteSegmentsAndReassembles(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := cli.Write(data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(data))
	buf := make([]byte, 8192)
	for len(got) < len(data) {
		n, err := srv.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled data differs")
	}
}

func TestStreamIntegrityProperty(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	f := func(chunks [][]byte) bool {
		var want []byte
		for _, ch := range chunks {
			if len(ch) > 4000 {
				ch = ch[:4000]
			}
			want = append(want, ch...)
			if len(ch) == 0 {
				continue
			}
			if _, err := cli.Write(ch); err != nil {
				return false
			}
		}
		got := make([]byte, 0, len(want))
		buf := make([]byte, 1024)
		for len(got) < len(want) {
			n, err := srv.Read(buf)
			if err != nil {
				return false
			}
			got = append(got, buf[:n]...)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNagleDelaysSmallSegments(t *testing.T) {
	e := newEnv(t)

	lat := func(noDelay bool) simnet.Time {
		cli, srv := connPair(t, e)
		cli.NoDelay = noDelay
		start := cli.Clock().Now()
		if _, err := cli.Write([]byte("tiny")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if _, err := srv.Read(buf); err != nil {
			t.Fatal(err)
		}
		_ = start
		return srv.Clock().Now() - start
	}
	withNagle := lat(false)
	withoutNagle := lat(true)
	if withNagle < withoutNagle+30*simnet.Microsecond {
		t.Fatalf("Nagle did not delay: nagle=%v nodelay=%v", withNagle, withoutNagle)
	}
}

func TestCopyAndSyscallCosts(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	base := cli.Clock().Now()
	payload := make([]byte, 1000)
	if _, err := cli.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Send side: syscall 1000 + copy 1000B@2GB/s=500 + PerSegment 100.
	sendCost := cli.Clock().Now() - base
	if sendCost != 1600 {
		t.Fatalf("send cost = %v, want 1600", sendCost)
	}
	srvBase := srv.Clock().Now()
	buf := make([]byte, 2000)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Receive side: arrival sync (dominates) + recv syscall + copy.
	if srv.Clock().Now()-srvBase < 1500+500 {
		t.Fatalf("recv side charged too little: %v", srv.Clock().Now()-srvBase)
	}
}

func TestJitterApplied(t *testing.T) {
	e := newEnv(t)
	e.prov.Jitter = func(r *simnet.Rand) simnet.Duration {
		return 10 * simnet.Millisecond // huge, unmistakable
	}
	cli, srv := connPair(t, e)
	if _, err := cli.Write([]byte("j")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	if srv.Clock().Now() < 10*simnet.Millisecond {
		t.Fatalf("jitter missing: srv clock %v", srv.Clock().Now())
	}
}

func TestCloseEOF(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	if _, err := cli.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	// Pending data still readable...
	buf := make([]byte, 64)
	n, err := srv.Read(buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("Read = (%q, %v)", buf[:n], err)
	}
	// ...then EOF.
	if _, err := srv.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	// Writing on a closed conn errors.
	if _, err := cli.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := srv.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("peer write err = %v, want ErrClosed", err)
	}
	cli.Close() // idempotent
}

func TestWriteToFailedPeer(t *testing.T) {
	e := newEnv(t)
	cli, _ := connPair(t, e)
	e.b.Fail()
	if _, err := cli.Write([]byte("x")); err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestSetClock(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	worker := simnet.NewVClock(12345)
	srv.SetClock(worker)
	if srv.Clock() != worker {
		t.Fatal("SetClock did not take")
	}
	if _, err := cli.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	if worker.Now() <= 12345 {
		t.Fatal("read did not charge the new clock")
	}
}

func TestBuffered(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	if srv.Buffered() != 0 {
		t.Fatalf("Buffered = %d, want 0", srv.Buffered())
	}
	if _, err := cli.Write(make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	if srv.Buffered() == 0 {
		t.Fatal("Buffered should see in-flight segments")
	}
	buf := make([]byte, 1000)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	if srv.Buffered() == 0 {
		t.Fatal("carry-over should remain buffered")
	}
}

func TestZeroLengthRead(t *testing.T) {
	e := newEnv(t)
	_, srv := connPair(t, e)
	if n, err := srv.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil) = (%d, %v)", n, err)
	}
}

func TestAggregateBoundedByWire(t *testing.T) {
	// Physics check: many senders into one receiver cannot exceed the
	// receiver's downlink bandwidth — their transfers serialize.
	nw := simnet.NewNetwork()
	server := nw.AddNode("server")
	fab := nw.AddFabric(simnet.FabricSpec{
		Name:            "eth",
		LinkBytesPerSec: 1e8, // 100 MB/s
		Propagation:     500,
	})
	fab.Attach(server)
	prov := &Provider{Name: "wire", Fabric: fab, SegmentSize: 8192}
	lis, err := prov.Listen(server, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	const senders = 4
	const perSender = 1 << 20 // 1 MB each
	srvConns := make(chan *Conn, senders)
	go func() {
		clk := simnet.NewVClock(0)
		for i := 0; i < senders; i++ {
			c, ok := lis.Accept(clk)
			if !ok {
				return
			}
			srvConns <- c
		}
	}()

	var conns []*Conn
	for i := 0; i < senders; i++ {
		node := nw.AddNode(fmt.Sprintf("sender%d", i))
		fab.Attach(node)
		c, err := prov.Dial(node, server, "svc", simnet.NewVClock(0), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.NoDelay = true
		conns = append(conns, c)
	}
	payload := make([]byte, perSender)
	for _, c := range conns {
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	// Drain everything server-side; the last byte's arrival bounds the
	// aggregate rate.
	var maxArrive simnet.Time
	for i := 0; i < senders; i++ {
		sc := <-srvConns
		clk := simnet.NewVClock(0)
		sc.SetClock(clk)
		buf := make([]byte, 64*1024)
		got := 0
		for got < perSender {
			n, err := sc.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if clk.Now() > maxArrive {
			maxArrive = clk.Now()
		}
	}
	total := float64(senders * perSender)
	rate := total / maxArrive.Seconds()
	if rate > 1.05e8 {
		t.Fatalf("aggregate rate %.0f B/s exceeds the 1e8 B/s downlink", rate)
	}
	// And it should be near the wire limit, not far below.
	if rate < 0.5e8 {
		t.Fatalf("aggregate rate %.0f B/s implausibly low", rate)
	}
}
