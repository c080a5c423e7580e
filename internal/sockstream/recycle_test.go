package sockstream

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/simnet"
)

// Segment buffers are recycled: Write draws them from the reading end's
// spare list, and the reader hands each one back once its bytes are in
// rbuf. These tests pin the ownership rules — a buffer is never reused
// while a segment that has not been consumed still points at it — and
// the bounds on what a connection keeps. Both ends are driven from one
// goroutine, as their deployment's one owner drives them.

// pattern fills b with bytes that depend on the stream offset, so a
// buffer reused too early shows up as wrong content.
func pattern(b []byte, off int) {
	for i := range b {
		b[i] = byte((off + i) * 31)
	}
}

// TestSegmentRecyclingEcho runs a closed-loop echo with varying message
// sizes and checks every byte. In the second half one segment in eight
// is dropped, so retransmitted segments travel through the same buffers.
func TestSegmentRecyclingEcho(t *testing.T) {
	e := newEnv(t)
	e.prov.RTOMin = simnet.Millisecond
	cli, srv := connPair(t, e)
	sizes := []int{1, 40, 1070, 1460, 1461, 5000, 17, 2920}
	const rounds = 400

	msg, got, buf := make([]byte, 8192), make([]byte, 8192), make([]byte, 8192)
	off := 0
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			e.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 5, DropRate: 0.125}))
		}
		n := sizes[r%len(sizes)]
		pattern(msg[:n], off)
		off += n
		if _, err := cli.Write(msg[:n]); err != nil {
			t.Fatalf("round %d write: %v", r, err)
		}
		if _, err := io.ReadFull(srv, buf[:n]); err != nil {
			t.Fatalf("round %d server read: %v", r, err)
		}
		if _, err := srv.Write(buf[:n]); err != nil {
			t.Fatalf("round %d server write: %v", r, err)
		}
		if _, err := io.ReadFull(cli, got[:n]); err != nil {
			t.Fatalf("round %d read: %v", r, err)
		}
		if !bytes.Equal(got[:n], msg[:n]) {
			t.Fatalf("round %d: echo of %d bytes corrupted (a segment buffer reused while in flight?)", r, n)
		}
	}
	if e.prov.Retransmits() == 0 {
		t.Fatal("no segment was retransmitted: the lossy half validated nothing")
	}
	for name, c := range map[string]*Conn{"client": cli, "server": srv} {
		if n := len(c.ep.spare); n == 0 || n > maxSpareSegs {
			t.Errorf("%s end keeps %d spare buffers, want 1..%d", name, n, maxSpareSegs)
		}
	}
}

// TestSegmentRecyclingSteadyStateAllocs: once the spare lists are warm
// a request/response round trip allocates nothing on the wire.
func TestSegmentRecyclingSteadyStateAllocs(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	req, reply := make([]byte, 40), make([]byte, 1070)
	buf := make([]byte, 2048)
	rtt := func() {
		cli.Write(req)
		io.ReadFull(srv, buf[:len(req)])
		srv.Write(reply)
		io.ReadFull(cli, buf[:len(reply)])
		// And the other way round: sizes alternate per direction.
		cli.Write(reply)
		io.ReadFull(srv, buf[:len(reply)])
		srv.Write(req)
		io.ReadFull(cli, buf[:len(req)])
	}
	for i := 0; i < 4; i++ {
		rtt()
	}
	if allocs := testing.AllocsPerRun(100, rtt); allocs != 0 {
		t.Fatalf("warm round trips allocate %v times, want 0", allocs)
	}
}

// TestReadDeadlineRequeueKeepsSegment: a segment that a read puts back
// (its arrival lies past the reader's clock when the wakeup drains the
// queue) still owns its buffer — the writer's next segments must not be
// handed the same memory.
func TestReadDeadlineRequeueKeepsSegment(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	buf := make([]byte, 64)

	// Warm the spare list so a premature recycle would have somewhere to go.
	cli.Write([]byte("warm"))
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}

	cli.Write([]byte("now"))
	cli.clk.Advance(simnet.Millisecond) // "first" lands long after "now"
	cli.Write([]byte("first"))
	if n, err := srv.Read(buf); err != nil || string(buf[:n]) != "now" {
		t.Fatalf("Read = (%q, %v), want \"now\" alone: \"first\" has not arrived yet", buf[:n], err)
	}
	cli.Write([]byte("SECOND")) // must not overwrite the requeued "first"
	var got []byte
	for len(got) < len("firstSECOND") {
		n, err := srv.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "firstSECOND" {
		t.Fatalf("stream after a requeued segment = %q", got)
	}
}

// TestSpareSegmentsBounded: one 1 MB write puts ~700 segments in flight;
// once they are read the connection keeps at most maxSpareSegs buffers,
// none larger than a segment.
func TestSpareSegmentsBounded(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)
	payload := make([]byte, 1<<20)
	pattern(payload, 0)
	if _, err := cli.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("1 MB payload corrupted")
	}
	if n := len(srv.ep.spare); n != maxSpareSegs {
		t.Fatalf("after a 1 MB write the reader keeps %d spare buffers, want %d", n, maxSpareSegs)
	}
	kept := 0
	for _, b := range srv.ep.spare {
		kept += cap(b)
	}
	if kept > maxSpareSegs*e.prov.SegmentSize {
		t.Fatalf("spare list retains %d bytes, want <= %d", kept, maxSpareSegs*e.prov.SegmentSize)
	}
	// The next write is served from the list.
	if allocs := testing.AllocsPerRun(10, func() {
		cli.Write(payload[:1000])
		io.ReadFull(srv, got[:1000])
	}); allocs != 0 {
		t.Fatalf("write after the burst allocates %v times, want 0", allocs)
	}
}
