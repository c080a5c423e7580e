package verbs

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/simnet"
)

// Two-SGE RDMA WRITE: Local then Local2 land contiguously at RemoteAddr,
// the completion reports the combined length, and the copy honors an
// installed destination memory guard (the seqlock-protected published
// windows take this path).
func TestRDMAWriteGatherLandsContiguously(t *testing.T) {
	p := newPair(t, 2, 256)
	p.srvHCA.SetMemGuard(&sync.RWMutex{})

	srvBuf := make([]byte, 64)
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte("HDR:")
	val := []byte("value-bytes")
	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 1, Op: OpRDMAWrite, Local: hdr, Local2: val,
		RemoteAddr: srvMR.VA() + 8, RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("gather write: ok=%v wc=%+v", ok, wc)
	}
	if wc.ByteLen != len(hdr)+len(val) {
		t.Fatalf("ByteLen = %d, want %d (both segments)", wc.ByteLen, len(hdr)+len(val))
	}
	if !bytes.Equal(srvBuf[8:8+len(hdr)+len(val)], []byte("HDR:value-bytes")) {
		t.Fatalf("remote bytes = %q, want segments contiguous", srvBuf[8:8+len(hdr)+len(val)])
	}
	for _, b := range srvBuf[:8] {
		if b != 0 {
			t.Fatal("write touched bytes before RemoteAddr")
		}
	}
}

// Depth-1 charge degeneracy: a PostSendN burst of one two-SGE write must
// advance the clock exactly as much as PostSend of the identical WR —
// the gather segment adds wire bytes, never post-time CPU cost.
func TestRDMAWriteGatherChargeDegenerateDepth1(t *testing.T) {
	mkWR := func(mr *MR) SendWR {
		return SendWR{
			ID: 1, Op: OpRDMAWrite, Local: []byte("hdrhdrhd"), Local2: make([]byte, 4096),
			RemoteAddr: mr.VA(), RKey: mr.RKey(),
		}
	}
	p1 := newPair(t, 2, 256)
	mr1, err := p1.srvHCA.RegisterMR(p1.srvPD, make([]byte, 8192), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := p1.cliClock.Now()
	if err := p1.cliQP.PostSend(p1.cliClock, mkWR(mr1)); err != nil {
		t.Fatal(err)
	}
	single := p1.cliClock.Now() - before

	p2 := newPair(t, 2, 256)
	mr2, err := p2.srvHCA.RegisterMR(p2.srvPD, make([]byte, 8192), nil)
	if err != nil {
		t.Fatal(err)
	}
	before = p2.cliClock.Now()
	if err := p2.cliQP.PostSendN(p2.cliClock, []SendWR{mkWR(mr2)}); err != nil {
		t.Fatal(err)
	}
	if batched := p2.cliClock.Now() - before; batched != single {
		t.Fatalf("PostSendN(1 gather write) advanced %v, PostSend advanced %v", batched, single)
	}
}

// The remote window bounds are enforced on the COMBINED gather length:
// a header that fits where header+value overflows must fail with
// StatusRemoteError and leave remote memory untouched. An unknown or a
// deregistered RKey fails the same way.
func TestRDMAWriteGatherWindowBounds(t *testing.T) {
	p := newPair(t, 2, 256)
	srvBuf := make([]byte, 16)
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4-byte header fits the 16-byte window; +16 bytes of value does not.
	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 1, Op: OpRDMAWrite, Local: []byte("hdr!"), Local2: make([]byte, 16),
		RemoteAddr: srvMR.VA(), RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusRemoteError {
		t.Fatalf("overflowing gather write: ok=%v status=%v, want remote-error", ok, wc.Status)
	}
	for _, b := range srvBuf {
		if b != 0 {
			t.Fatal("failed gather write modified remote memory")
		}
	}
	goneBuf := make([]byte, 16)
	gone, err := p.srvHCA.RegisterMR(p.srvPD, goneBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.srvHCA.DeregisterMR(gone)
	for _, bad := range []struct {
		name string
		addr uint64
		rkey uint32
		mem  []byte
	}{
		{"unknown rkey", srvMR.VA(), srvMR.RKey() + 0xbad, srvBuf},
		{"deregistered rkey", gone.VA(), gone.RKey(), goneBuf},
	} {
		err = p.cliQP.PostSend(p.cliClock, SendWR{
			ID: 2, Op: OpRDMAWrite, Local: []byte("x"), Local2: []byte("y"),
			RemoteAddr: bad.addr, RKey: bad.rkey,
		})
		if err != nil {
			t.Fatal(err)
		}
		wc, ok = p.cliSend.TryPollWith(p.cliClock)
		if !ok || wc.Status != StatusRemoteError {
			t.Fatalf("%s gather write: ok=%v status=%v, want remote-error", bad.name, ok, wc.Status)
		}
		if bad.mem[0] != 0 {
			t.Fatalf("%s gather write modified remote memory", bad.name)
		}
	}
}

// A gather write on a 100% lossy fabric exhausts the RC retry budget:
// StatusRetryExceeded on the WR and the QP moves to ERR, exactly like a
// two-sided send.
func TestRDMAWriteGatherRetryExceeded(t *testing.T) {
	p := newPair(t, 2, 256)
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 3, DropRate: 1.0}))

	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 9, Op: OpRDMAWrite, Local: []byte("hd"), Local2: []byte("doomed"),
		RemoteAddr: srvMR.VA(), RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusRetryExceeded {
		t.Fatalf("gather write through total loss: ok=%v status=%v, want retry-exceeded", ok, wc.Status)
	}
	if st := p.cliQP.state; st != StateErr {
		t.Fatalf("QP state after retry exhaustion = %v, want ERR", st)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 10, Op: OpRDMAWrite, Local: []byte("x"), RemoteAddr: srvMR.VA(), RKey: srvMR.RKey()}); err != ErrBadState {
		t.Fatalf("PostSend on errored QP = %v, want ErrBadState", err)
	}
}

// RDMA WRITE is one-sided: it consumes no receive buffer, so a receiver
// with an empty receive queue never triggers the RNR path for writes —
// while a SEND on the very same QP does. The write-reply datapath leans
// on this: data writes can never burn SRQ credits.
func TestRDMAWriteGatherNoRNR(t *testing.T) {
	p := newPair(t, 0, 0) // no receive buffers posted anywhere
	srvBuf := make([]byte, 32)
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 1, Op: OpRDMAWrite, Local: []byte("no-"), Local2: []byte("rnr"),
		RemoteAddr: srvMR.VA(), RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("gather write with no posted receives: ok=%v status=%v, want success", ok, wc.Status)
	}
	if !bytes.Equal(srvBuf[:6], []byte("no-rnr")) {
		t.Fatalf("remote bytes = %q", srvBuf[:6])
	}
	if p.cliHCA.Retransmits() != 0 {
		t.Fatal("one-sided write took the RNR retransmit path")
	}
	// Contrast: a SEND on the same starved QP reports RNR.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 2, Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok = p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusRNRRetryExceeded {
		t.Fatalf("send with no posted receives: ok=%v status=%v, want rnr-retry-exceeded", ok, wc.Status)
	}
}
