package sockstream

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
)

// A lost segment is retransmitted after RTOMin: the bytes still arrive
// in order, but the reader's observed latency jumps by (at least) the
// RTO — the kernel-stack tail-latency collapse under loss.
func TestWriteRetransmitsAfterRTO(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)

	// Lossless baseline round: measures the clean arrival stamp.
	if _, err := cli.Write([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := srv.Read(buf); err != nil {
		t.Fatal(err)
	}
	cleanArrival := srv.clk.Now()

	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 9})
	e.fab.SetFaults(fi)
	fi.DropNext(e.a, e.b, 1)

	sendStart := cli.clk.Now()
	if _, err := cli.Write([]byte("lost-once")); err != nil {
		t.Fatal(err)
	}
	// The writer is NOT delayed by the retransmission (kernel does it
	// asynchronously): only syscall/copy/segment costs hit the caller.
	if writerDelay := cli.clk.Now() - sendStart; writerDelay >= e.prov.RTOMin {
		t.Fatalf("writer blocked %d ns, kernel retransmit must not block the caller", writerDelay)
	}
	n, err := srv.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], []byte("lost-once")) {
		t.Fatalf("retransmitted payload = %q", buf[:n])
	}
	// The reader ate the RTO.
	if delay := srv.clk.Now() - cleanArrival; delay < e.prov.RTOMin {
		t.Fatalf("reader delay %d ns under loss, want >= RTOMin %d ns", delay, e.prov.RTOMin)
	}
	if e.prov.Retransmits() != 1 {
		t.Fatalf("Retransmits() = %d, want 1", e.prov.Retransmits())
	}
}

// Persistent loss exhausts rtoRetries and surfaces errUnreachable.
func TestWriteUnreachableAfterRetryExhaustion(t *testing.T) {
	e := newEnv(t)
	cli, _ := connPair(t, e)
	e.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 1, DropRate: 1.0}))

	if _, err := cli.Write([]byte("doomed")); err != errUnreachable {
		t.Fatalf("Write under 100%% loss = %v, want ErrUnreachable", err)
	}
	if got := e.prov.Retransmits(); got != rtoRetries {
		t.Fatalf("Retransmits() = %d, want rtoRetries = %d", got, rtoRetries)
	}
}

// Multi-segment writes stay in order even when only the head segment is
// lost: the stream respects byte order, so the late head blocks the
// segments behind it (head-of-line blocking).
func TestLossPreservesByteOrder(t *testing.T) {
	e := newEnv(t)
	cli, srv := connPair(t, e)

	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 2})
	e.fab.SetFaults(fi)
	fi.DropNext(e.a, e.b, 1) // lose the first of several segments

	payload := make([]byte, 4*e.prov.SegmentSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := cli.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 4096)
	for len(got) < len(payload) {
		n, err := srv.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("byte stream reordered or corrupted under loss")
	}
}

// Clone carries the retransmission knob.
func TestCloneCopiesRTOKnobs(t *testing.T) {
	e := newEnv(t)
	e.prov.RTOMin = 5 * simnet.Millisecond
	if c := e.prov.Clone(e.fab); c.RTOMin != e.prov.RTOMin {
		t.Fatalf("Clone RTOMin = %d, want %d", c.RTOMin, e.prov.RTOMin)
	}
}
