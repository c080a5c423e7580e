package verbs

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
)

// Two-SGE RDMA WRITE: Local then Local2 land contiguously at RemoteAddr,
// the completion reports the combined length.
func TestRDMAWriteGatherLandsContiguously(t *testing.T) {
	p := newPair(t, 2, 256)

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
// statusRemoteError and leave remote memory untouched. An unknown or a
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
	if !ok || wc.Status != statusRemoteError {
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
		if !ok || wc.Status != statusRemoteError {
			t.Fatalf("%s gather write: ok=%v status=%v, want remote-error", bad.name, ok, wc.Status)
		}
		if bad.mem[0] != 0 {
			t.Fatalf("%s gather write modified remote memory", bad.name)
		}
	}
}

// A gather write on a 100% lossy fabric exhausts the RC retry budget:
// statusRetryExceeded on the WR and the QP moves to ERR, exactly like a
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
	if !ok || wc.Status != statusRetryExceeded {
		t.Fatalf("gather write through total loss: ok=%v status=%v, want retry-exceeded", ok, wc.Status)
	}
	if st := p.cliQP.state; st != stateErr {
		t.Fatalf("QP state after retry exhaustion = %v, want ERR", st)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 10, Op: OpRDMAWrite, Local: []byte("x"), RemoteAddr: srvMR.VA(), RKey: srvMR.RKey()}); err != errBadState {
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
	if !ok || wc.Status != statusRNRRetryExceeded {
		t.Fatalf("send with no posted receives: ok=%v status=%v, want rnr-retry-exceeded", ok, wc.Status)
	}
}

// Two-SGE SEND: Local then Local2 land contiguously in one receive
// buffer, both completions report the combined length, and the send
// costs what a one-segment SEND of the concatenation costs — on the
// sender's clock and in the arrival stamp.
func TestSendGatherLandsContiguously(t *testing.T) {
	gathered, flat := newPair(t, 1, 64), newPair(t, 1, 64)
	if err := gathered.cliQP.PostSend(gathered.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("HDR:"), Local2: []byte("value-bytes")}); err != nil {
		t.Fatal(err)
	}
	if err := flat.cliQP.PostSend(flat.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("HDR:value-bytes")}); err != nil {
		t.Fatal(err)
	}
	swc, _ := gathered.cliSend.TryPoll()
	rwc, ok := gathered.srvRecv.TryPoll()
	if !ok || rwc.Status != StatusSuccess || string(rwc.Buf) != "HDR:value-bytes" {
		t.Fatalf("gather send landed %q (ok=%v status=%v), want the segments contiguous", rwc.Buf, ok, rwc.Status)
	}
	if rwc.ByteLen != 15 || swc.ByteLen != 15 {
		t.Fatalf("ByteLen: receive %d, send %d; want 15 (both segments)", rwc.ByteLen, swc.ByteLen)
	}
	fwc, _ := flat.srvRecv.TryPoll()
	if rwc.Time != fwc.Time || gathered.cliClock.Now() != flat.cliClock.Now() {
		t.Fatalf("gather send: arrival %v, sender at %v; one segment: %v, %v", rwc.Time, gathered.cliClock.Now(), fwc.Time, flat.cliClock.Now())
	}
	// A reservation holding either segment but not both refuses the
	// message.
	short := newPair(t, 1, 14)
	if err := short.cliQP.PostSend(short.cliClock, SendWR{Op: OpSend, Local: []byte("HDR:"), Local2: []byte("value-bytes")}); err != nil {
		t.Fatal(err)
	}
	if rwc, ok := short.srvRecv.TryPoll(); !ok || rwc.Status != statusRemoteError {
		t.Fatalf("15 bytes into a 14-byte reservation: ok=%v status=%v, want remote-error", ok, rwc.Status)
	}
}

// A UD datagram's MTU bounds the gathered sum: two segments that each
// fit but together do not are refused at post time.
func TestUDSendGatherMTU(t *testing.T) {
	nw := simnet.NewNetwork()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9, MTU: 2048})
	ha, hb := NewHCA(a, f, testConfig()), NewHCA(b, f, testConfig())
	cq := ha.CreateCQ()
	qa, qb := ha.NewQP(UD, cq, cq), hb.NewQP(UD, hb.CreateCQ(), hb.CreateCQ())
	for _, qp := range []*QP{qa, qb} {
		for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
			if err := qp.Modify(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	ah := &AddressHandle{Target: hb, QPN: qb.QPN()}
	clk := simnet.NewVClock(0)
	half := make([]byte, 1024)
	if err := qa.PostSend(clk, SendWR{Op: OpSend, Local: half, Local2: half, Dest: ah}); err != nil {
		t.Fatalf("gather of exactly the MTU: %v", err)
	}
	if err := qa.PostSend(clk, SendWR{Op: OpSend, Local: half, Local2: make([]byte, 1025), Dest: ah}); err != errTooLarge {
		t.Fatalf("gather one byte past the MTU: err = %v, want ErrTooLarge", err)
	}
}

// An RC gather SEND that finds no receive posted goes through the RNR
// retries as one message: its completion reports the summed length, and
// the same WR posted again after a receive is posted lands both
// segments.
func TestSendGatherRNR(t *testing.T) {
	p := newPair(t, 0, 0)
	wr := SendWR{ID: 1, Op: OpSend, Local: []byte("rnr-"), Local2: []byte("gather")}
	if err := p.cliQP.PostSend(p.cliClock, wr); err != nil {
		t.Fatal(err)
	}
	if wc, ok := p.cliSend.TryPoll(); !ok || wc.Status != statusRNRRetryExceeded || wc.ByteLen != 10 {
		t.Fatalf("starved gather send: ok=%v status=%v ByteLen %d, want rnr-retry-exceeded with 10", ok, wc.Status, wc.ByteLen)
	}
	if p.cliHCA.Retransmits() != rnrRetry {
		t.Fatalf("Retransmits() = %d, want rnrRetry = %d", p.cliHCA.Retransmits(), rnrRetry)
	}
	if err := p.srvQP.PostRecv(RecvWR{Len: 16}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(p.cliClock, wr); err != nil {
		t.Fatal(err)
	}
	if rwc, ok := p.srvRecv.TryPoll(); !ok || string(rwc.Buf) != "rnr-gather" {
		t.Fatalf("gather send after a repost landed %q (ok=%v)", rwc.Buf, ok)
	}
}
