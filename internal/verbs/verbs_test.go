package verbs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

// testConfig is a simple cost model: every knob distinct so mistakes in
// accounting show up as wrong totals.
func testConfig() Config {
	return Config{
		PostOverhead:      10,
		SendProc:          100,
		RecvProc:          100,
		RDMAProc:          150,
		PollOverhead:      20,
		InterruptOverhead: 500,
		RegBase:           1000,
		RegPerByte:        0.5,
		HeaderBytes:       30,
		MTU:               2048,
		InlineMax:         128,
	}
}

type pair struct {
	nw       *simnet.Network
	fab      *simnet.Fabric
	cm       *CM
	cliNode  *simnet.Node
	srvNode  *simnet.Node
	cliHCA   *HCA
	srvHCA   *HCA
	cliQP    *QP
	srvQP    *QP
	cliSend  *CQ
	cliRecv  *CQ
	srvSend  *CQ
	srvRecv  *CQ
	cliClock *simnet.VClock
	srvClock *simnet.VClock
	cliPD    *PD
	srvPD    *PD
}

// newPair builds two nodes with a connected RC queue pair, with nRecv
// receive buffers of bufSize pre-posted on each side.
func newPair(t *testing.T, nRecv, bufSize int) *pair {
	t.Helper()
	p := &pair{}
	p.nw = simnet.NewNetwork()
	p.cliNode = p.nw.AddNode("client")
	p.srvNode = p.nw.AddNode("server")
	p.fab = p.nw.AddFabric(simnet.FabricSpec{
		Name:            "ib",
		LinkBytesPerSec: 1e9,
		Propagation:     200,
		SwitchDelay:     100,
	})
	cfg := testConfig()
	p.cliHCA = NewHCA(p.cliNode, p.fab, cfg)
	p.srvHCA = NewHCA(p.srvNode, p.fab, cfg)
	p.cm = NewCM(p.fab)
	p.cliClock = simnet.NewVClock(0)
	p.srvClock = simnet.NewVClock(0)
	p.cliPD = p.cliHCA.AllocPD()
	p.srvPD = p.srvHCA.AllocPD()

	p.cliSend, p.cliRecv = p.cliHCA.CreateCQ(), p.cliHCA.CreateCQ()
	p.srvSend, p.srvRecv = p.srvHCA.CreateCQ(), p.srvHCA.CreateCQ()
	p.cliQP = p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	p.srvQP = p.srvHCA.NewQP(RC, p.srvSend, p.srvRecv)

	lis, err := p.cm.Listen("memcached")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if err := p.srvQP.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRecv; i++ {
		if err := p.cliQP.PostRecv(RecvWR{ID: uint64(1000 + i), Buf: make([]byte, bufSize)}); err != nil {
			t.Fatal(err)
		}
		if err := p.srvQP.PostRecv(RecvWR{ID: uint64(2000 + i), Buf: make([]byte, bufSize)}); err != nil {
			t.Fatal(err)
		}
	}
	accepted := make(chan error, 1)
	go func() {
		req, ok := lis.Accept(p.srvClock)
		if !ok {
			accepted <- ErrListenerClosed
			return
		}
		accepted <- req.Accept(p.srvQP, p.srvClock)
	}()
	if _, err := p.cm.Connect(p.cliQP, p.srvNode, "memcached", p.cliClock, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	lis.Close()
	return p
}

func TestQPStateMachine(t *testing.T) {
	p := &pair{}
	p.nw = simnet.NewNetwork()
	n := p.nw.AddNode("n")
	f := p.nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h := NewHCA(n, f, testConfig())
	cq := h.CreateCQ()
	qp := h.NewQP(RC, cq, cq)

	if qp.State() != StateReset {
		t.Fatalf("initial state = %v", qp.State())
	}
	// Skipping INIT is illegal.
	if err := qp.Modify(StateRTR); err != ErrBadState {
		t.Fatalf("RESET->RTR = %v, want ErrBadState", err)
	}
	for _, st := range []QPState{StateInit, StateRTR, StateRTS} {
		if err := qp.Modify(st); err != nil {
			t.Fatalf("to %v: %v", st, err)
		}
	}
	// Going backwards is illegal.
	if err := qp.Modify(StateInit); err != ErrBadState {
		t.Fatalf("RTS->INIT = %v, want ErrBadState", err)
	}
	// Any state can move to ERR, and ERR recycles through RESET.
	if err := qp.Modify(StateErr); err != nil {
		t.Fatal(err)
	}
	if err := qp.Modify(StateReset); err != nil {
		t.Fatal(err)
	}
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
}

func TestPostRecvRequiresInit(t *testing.T) {
	nw := simnet.NewNetwork()
	n := nw.AddNode("n")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h := NewHCA(n, f, testConfig())
	cq := h.CreateCQ()
	qp := h.NewQP(RC, cq, cq)
	if err := qp.PostRecv(RecvWR{Buf: make([]byte, 8)}); err != ErrBadState {
		t.Fatalf("PostRecv in RESET = %v, want ErrBadState", err)
	}
}

func TestPostSendRequiresRTS(t *testing.T) {
	nw := simnet.NewNetwork()
	n := nw.AddNode("n")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h := NewHCA(n, f, testConfig())
	cq := h.CreateCQ()
	qp := h.NewQP(RC, cq, cq)
	clk := simnet.NewVClock(0)
	if err := qp.PostSend(clk, SendWR{Op: OpSend, Local: []byte("x")}); err != ErrBadState {
		t.Fatalf("PostSend in RESET = %v, want ErrBadState", err)
	}
}

func TestMRRegistration(t *testing.T) {
	nw := simnet.NewNetwork()
	n := nw.AddNode("n")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h := NewHCA(n, f, testConfig())
	pd := h.AllocPD()
	clk := simnet.NewVClock(0)

	buf := make([]byte, 4096)
	mr, err := h.RegisterMR(pd, buf, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Registration cost: RegBase 1000 + 4096*0.5 = 3048.
	if clk.Now() != 3048 {
		t.Fatalf("registration cost = %v, want 3048", clk.Now())
	}
	if mr.Len() != 4096 || mr.LKey() == 0 || mr.RKey() == 0 || mr.VA() == 0 {
		t.Fatalf("bad MR: %+v", mr)
	}

	// Addr of a sub-slice.
	sub := buf[100:200]
	addr, err := mr.Addr(sub)
	if err != nil {
		t.Fatal(err)
	}
	if addr != mr.VA()+100 {
		t.Fatalf("Addr = %v, want %v", addr, mr.VA()+100)
	}
	// Foreign buffer is rejected.
	if _, err := mr.Addr(make([]byte, 10)); err != ErrOutOfBounds {
		t.Fatalf("foreign Addr err = %v, want ErrOutOfBounds", err)
	}
	// Range checks.
	if _, err := mr.rdmaRange(mr.VA(), 4096); err != nil {
		t.Fatalf("full range: %v", err)
	}
	if _, err := mr.rdmaRange(mr.VA()+4000, 200); err != ErrOutOfBounds {
		t.Fatalf("overflow range err = %v, want ErrOutOfBounds", err)
	}
	if _, err := mr.rdmaRange(mr.VA()-1, 1); err != ErrOutOfBounds {
		t.Fatalf("before-start err = %v, want ErrOutOfBounds", err)
	}

	// Deregistration removes rkey visibility.
	h.DeregisterMR(mr)
	if _, ok := h.lookupMR(mr.RKey()); ok {
		t.Fatal("deregistered MR still visible")
	}
}

func TestMRPDMismatch(t *testing.T) {
	nw := simnet.NewNetwork()
	n := nw.AddNode("n")
	m := nw.AddNode("m")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	h1 := NewHCA(n, f, testConfig())
	h2 := NewHCA(m, f, testConfig())
	pd2 := h2.AllocPD()
	if _, err := h1.RegisterMR(pd2, make([]byte, 8), nil); err != ErrPDMismatch {
		t.Fatalf("cross-HCA PD err = %v, want ErrPDMismatch", err)
	}
	if _, err := h1.RegisterMR(nil, make([]byte, 8), nil); err != ErrPDMismatch {
		t.Fatalf("nil PD err = %v, want ErrPDMismatch", err)
	}
}

func TestSendRecvRoundtrip(t *testing.T) {
	p := newPair(t, 4, 1024)
	payload := []byte("hello, verbs")

	post := p.cliClock.Now()
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 7, Op: OpSend, Local: payload, Imm: 99}); err != nil {
		t.Fatal(err)
	}
	if p.cliClock.Now() != post+10 {
		t.Fatalf("post charged %v, want PostOverhead=10", p.cliClock.Now()-post)
	}

	// Local send completion.
	swc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || swc.Status != StatusSuccess || swc.ID != 7 || swc.Op != OpSend {
		t.Fatalf("send WC = %+v ok=%v", swc, ok)
	}

	// Remote receive completion carries the data and immediate.
	rwc, ok := p.srvRecv.Wait(p.srvClock)
	if !ok || rwc.Status != StatusSuccess || rwc.Op != OpRecv {
		t.Fatalf("recv WC = %+v ok=%v", rwc, ok)
	}
	if rwc.ByteLen != len(payload) || rwc.Imm != 99 || rwc.SrcQPN != p.cliQP.QPN() {
		t.Fatalf("recv WC fields = %+v", rwc)
	}
	if rwc.Time <= post {
		t.Fatalf("receive did not advance time: %v <= %v", rwc.Time, post)
	}
	if p.srvClock.Now() < rwc.Time {
		t.Fatalf("server clock %v behind completion %v", p.srvClock.Now(), rwc.Time)
	}
}

func TestSendDataIntegrityProperty(t *testing.T) {
	p := newPair(t, 64, 4096)
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 1, Op: OpSend, Local: data}); err != nil {
			return false
		}
		if _, ok := p.cliSend.Wait(p.cliClock); !ok {
			return false
		}
		wc, ok := p.srvRecv.Wait(p.srvClock)
		if !ok || wc.Status != StatusSuccess || wc.ByteLen != len(data) {
			return false
		}
		// Refill the consumed buffer and check content via a fresh recv:
		// we can't see the buffer from the WC alone, so instead resend
		// below; content equality is validated in TestRecvBufferContent.
		return p.srvQP.PostRecv(RecvWR{Buf: make([]byte, 4096)}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvBufferContent(t *testing.T) {
	p := newPair(t, 0, 0)
	buf := make([]byte, 64)
	if err := p.srvQP.PostRecv(RecvWR{ID: 5, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("payload-bytes-land-here")
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: msg}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.srvRecv.Wait(p.srvClock)
	if !ok || wc.ID != 5 {
		t.Fatalf("wc = %+v", wc)
	}
	if !bytes.Equal(buf[:wc.ByteLen], msg) {
		t.Fatalf("buffer = %q, want %q", buf[:wc.ByteLen], msg)
	}
}

func TestRNRWhenNoRecvPosted(t *testing.T) {
	p := newPair(t, 0, 0)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusRNRRetryExceeded {
		t.Fatalf("wc = %+v, want RNR", wc)
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	p := newPair(t, 0, 0)
	if err := p.srvQP.PostRecv(RecvWR{ID: 9, Buf: make([]byte, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("too big for four")}); err != nil {
		t.Fatal(err)
	}
	swc, _ := p.cliSend.Wait(p.cliClock)
	if swc.Status != StatusRemoteError {
		t.Fatalf("sender status = %v, want remote-error", swc.Status)
	}
	rwc, _ := p.srvRecv.Wait(p.srvClock)
	if rwc.Status != StatusRemoteError || rwc.ID != 9 {
		t.Fatalf("receiver wc = %+v", rwc)
	}
}

func TestInlineLimit(t *testing.T) {
	p := newPair(t, 1, 1024)
	big := make([]byte, 256) // InlineMax is 128
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: big, Inline: true}); err != ErrInlineLimit {
		t.Fatalf("err = %v, want ErrInlineLimit", err)
	}
	small := make([]byte, 64)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: small, Inline: true}); err != nil {
		t.Fatalf("inline small: %v", err)
	}
}

func TestRDMARead(t *testing.T) {
	p := newPair(t, 1, 1024)
	// Server exposes a registered region with known content.
	srvBuf := make([]byte, 1024)
	copy(srvBuf[128:], []byte("remote-data-to-pull"))
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliBuf := make([]byte, 19)
	cliMR, err := p.cliHCA.RegisterMR(p.cliPD, cliBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := p.cliClock.Now()
	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 11, Op: OpRDMARead,
		Local: cliBuf, LocalMR: cliMR,
		RemoteAddr: srvMR.VA() + 128, RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusSuccess || wc.Op != OpRDMARead || wc.ID != 11 {
		t.Fatalf("wc = %+v", wc)
	}
	if string(cliBuf) != "remote-data-to-pull" {
		t.Fatalf("pulled %q", cliBuf)
	}
	// A read is a full round trip: strictly more than one-way time.
	if wc.Time <= before+300 {
		t.Fatalf("RDMA read completed implausibly fast: %v", wc.Time-before)
	}
	// No remote software involvement: server recv CQ must stay empty.
	if p.srvRecv.Len() != 0 {
		t.Fatal("RDMA read generated a remote completion")
	}
}

func TestRDMAWrite(t *testing.T) {
	p := newPair(t, 1, 1024)
	srvBuf := make([]byte, 256)
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("pushed-by-rdma-write")
	err = p.cliQP.PostSend(p.cliClock, SendWR{
		Op: OpRDMAWrite, Local: data,
		RemoteAddr: srvMR.VA() + 32, RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("wc = %+v", wc)
	}
	if !bytes.Equal(srvBuf[32:32+len(data)], data) {
		t.Fatalf("remote buffer = %q", srvBuf[32:32+len(data)])
	}
}

func TestRDMABadKey(t *testing.T) {
	p := newPair(t, 1, 1024)
	cliBuf := make([]byte, 16)
	cliMR, _ := p.cliHCA.RegisterMR(p.cliPD, cliBuf, nil)
	err := p.cliQP.PostSend(p.cliClock, SendWR{
		Op: OpRDMARead, Local: cliBuf, LocalMR: cliMR,
		RemoteAddr: 0x9999, RKey: 424242,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, _ := p.cliSend.Wait(p.cliClock)
	if wc.Status != StatusRemoteError {
		t.Fatalf("status = %v, want remote-error", wc.Status)
	}
}

func TestRDMAOutOfBounds(t *testing.T) {
	p := newPair(t, 1, 1024)
	srvBuf := make([]byte, 64)
	srvMR, _ := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	cliBuf := make([]byte, 128) // larger than the remote region
	cliMR, _ := p.cliHCA.RegisterMR(p.cliPD, cliBuf, nil)
	err := p.cliQP.PostSend(p.cliClock, SendWR{
		Op: OpRDMARead, Local: cliBuf, LocalMR: cliMR,
		RemoteAddr: srvMR.VA(), RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, _ := p.cliSend.Wait(p.cliClock)
	if wc.Status != StatusRemoteError {
		t.Fatalf("status = %v, want remote-error", wc.Status)
	}
}

func TestTransportErrorOnFailedPeer(t *testing.T) {
	p := newPair(t, 1, 1024)
	p.srvNode.Fail()
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, _ := p.cliSend.Wait(p.cliClock)
	if wc.Status != StatusTransportError {
		t.Fatalf("status = %v, want transport-error", wc.Status)
	}
}

func TestUDSendAndDrop(t *testing.T) {
	nw := simnet.NewNetwork()
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9, Propagation: 100})
	ha := NewHCA(a, f, testConfig())
	hb := NewHCA(b, f, testConfig())
	aclk, bclk := simnet.NewVClock(0), simnet.NewVClock(0)

	acq := ha.CreateCQ()
	bcqS, bcqR := hb.CreateCQ(), hb.CreateCQ()
	qa := ha.NewQP(UD, acq, acq)
	qb := hb.NewQP(UD, bcqS, bcqR)
	for _, qp := range []*QP{qa, qb} {
		for _, st := range []QPState{StateInit, StateRTR, StateRTS} {
			if err := qp.Modify(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	ah := &AddressHandle{Target: hb, QPN: qb.QPN()}

	// No receive posted: datagram silently dropped, sender still succeeds.
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: []byte("lost"), Dest: ah}); err != nil {
		t.Fatal(err)
	}
	wc, _ := acq.Wait(aclk)
	if wc.Status != StatusSuccess {
		t.Fatalf("UD loss should be silent, got %v", wc.Status)
	}
	if bcqR.Len() != 0 {
		t.Fatal("dropped datagram generated a receive completion")
	}

	// With a receive posted, data lands.
	buf := make([]byte, 64)
	if err := qb.PostRecv(RecvWR{ID: 3, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: []byte("found"), Dest: ah}); err != nil {
		t.Fatal(err)
	}
	if _, ok := acq.Wait(aclk); !ok {
		t.Fatal("no send completion")
	}
	rwc, ok := bcqR.Wait(bclk)
	if !ok || rwc.Status != StatusSuccess || string(buf[:rwc.ByteLen]) != "found" {
		t.Fatalf("rwc = %+v buf=%q", rwc, buf[:rwc.ByteLen])
	}

	// UD datagrams are limited to the MTU.
	big := make([]byte, 4096)
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: big, Dest: ah}); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// UD sends require an address handle.
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: []byte("x")}); err != ErrNoAddress {
		t.Fatalf("err = %v, want ErrNoAddress", err)
	}
	// UD cannot do RDMA.
	if err := qa.PostSend(aclk, SendWR{Op: OpRDMARead, Local: buf, Dest: ah}); err != ErrBadState {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
}

func TestSRQSharedAcrossQPs(t *testing.T) {
	p := newPair(t, 0, 0)
	// New server-side QPs draw from one SRQ.
	srq := p.srvHCA.CreateSRQ()
	scq := p.srvHCA.CreateCQ()
	q1 := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	q2 := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	for _, qp := range []*QP{q1, q2} {
		for _, st := range []QPState{StateInit, StateRTR, StateRTS} {
			if err := qp.Modify(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	bufs := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := srq.Post(RecvWR{ID: 1, Buf: bufs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := srq.Post(RecvWR{ID: 2, Buf: bufs[1]}); err != nil {
		t.Fatal(err)
	}
	if srq.Len() != 2 {
		t.Fatalf("SRQ len = %d", srq.Len())
	}
	// Posting to a QP with an SRQ attached routes to the shared ring.
	if err := q1.PostRecv(RecvWR{ID: 3, Buf: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if srq.Len() != 3 {
		t.Fatalf("SRQ len after QP-routed post = %d, want 3", srq.Len())
	}
	if _, ok := srq.pop(); !ok {
		t.Fatal("pop failed")
	}
	// Two different senders each consume one shared buffer.
	q1.setRemote(p.cliQP) // wiring shortcut for the test
	q2.setRemote(p.cliQP)
	p.cliQP.setRemote(q1)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	p.cliQP.setRemote(q2)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if srq.Len() != 0 {
		t.Fatalf("SRQ len after sends = %d", srq.Len())
	}
	seen := map[uint32]bool{}
	srvClk := simnet.NewVClock(0)
	for i := 0; i < 2; i++ {
		wc, ok := scq.Wait(srvClk)
		if !ok || wc.Status != StatusSuccess {
			t.Fatalf("wc = %+v", wc)
		}
		seen[wc.QPN] = true
	}
	if !seen[q1.QPN()] || !seen[q2.QPN()] {
		t.Fatalf("completions did not span both QPs: %v", seen)
	}
}

// TestSRQRingFull pins the ring-full error path: an SRQ has a hard
// capacity, Post beyond it must fail with ErrSRQFull and leave the ring
// unchanged, and popping a buffer must make room again.
func TestSRQRingFull(t *testing.T) {
	p := newPair(t, 0, 0)
	srq := p.srvHCA.CreateSRQSized(2)
	if srq.Cap() != 2 {
		t.Fatalf("Cap() = %d, want 2", srq.Cap())
	}
	for i := 0; i < 2; i++ {
		if err := srq.Post(RecvWR{ID: uint64(i), Buf: make([]byte, 16)}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := srq.Post(RecvWR{ID: 9, Buf: make([]byte, 16)}); err != ErrSRQFull {
		t.Fatalf("post beyond cap: err = %v, want ErrSRQFull", err)
	}
	if srq.Len() != 2 {
		t.Fatalf("failed post changed ring: len = %d", srq.Len())
	}
	// The QP-routed path surfaces the same error.
	scq := p.srvHCA.CreateCQ()
	qp := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if err := qp.PostRecv(RecvWR{ID: 10, Buf: make([]byte, 16)}); err != ErrSRQFull {
		t.Fatalf("QP PostRecv on full SRQ: err = %v, want ErrSRQFull", err)
	}
	if _, ok := srq.pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := srq.Post(RecvWR{ID: 11, Buf: make([]byte, 16)}); err != nil {
		t.Fatalf("post after pop: %v", err)
	}
	// Default-capacity constructor still works for existing callers.
	if c := p.srvHCA.CreateSRQ().Cap(); c != DefaultSRQCap {
		t.Fatalf("CreateSRQ().Cap() = %d, want %d", c, DefaultSRQCap)
	}
}

// TestSRQZeroCredit is the zero-credit edge: an RC send into a QP whose
// SRQ holds no buffers must come back as RNR retry exhaustion (receiver
// not ready), not hang and not drop, and a reposted credit must let the
// next send land.
func TestSRQZeroCredit(t *testing.T) {
	p := newPair(t, 0, 0)
	srq := p.srvHCA.CreateSRQSized(4)
	scq := p.srvHCA.CreateCQ()
	qp := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	for _, st := range []QPState{StateInit, StateRTR, StateRTS} {
		if err := qp.Modify(st); err != nil {
			t.Fatal(err)
		}
	}
	qp.setRemote(p.cliQP)
	p.cliQP.setRemote(qp)

	// No credits posted: the reliable sender sees RNR exhaustion.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("starved")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusRNRRetryExceeded {
		t.Fatalf("send into zero-credit SRQ: wc = %+v, want StatusRNRRetryExceeded", wc)
	}

	// One credit reposted: the retry lands.
	buf := make([]byte, 64)
	if err := srq.Post(RecvWR{ID: 2, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 3, Op: OpSend, Local: []byte("served")}); err != nil {
		t.Fatal(err)
	}
	wc, ok = p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("send after repost: wc = %+v", wc)
	}
	srvClk := simnet.NewVClock(0)
	rwc, ok := scq.Wait(srvClk)
	if !ok || rwc.Status != StatusSuccess || string(buf[:rwc.ByteLen]) != "served" {
		t.Fatalf("recv wc = %+v buf=%q", rwc, buf[:rwc.ByteLen])
	}
	if srq.Len() != 0 {
		t.Fatalf("SRQ len = %d after consume", srq.Len())
	}
}

func TestQPDestroyFlushes(t *testing.T) {
	p := newPair(t, 3, 64)
	p.srvQP.Destroy()
	srvClk := simnet.NewVClock(0)
	for i := 0; i < 3; i++ {
		wc, ok := p.srvRecv.Wait(srvClk)
		if !ok || wc.Status != StatusFlushed {
			t.Fatalf("wc = %+v", wc)
		}
	}
	if _, ok := p.srvHCA.lookupQP(p.srvQP.QPN()); ok {
		t.Fatal("destroyed QP still registered")
	}
}

func TestCMRefusedAndDuplicate(t *testing.T) {
	p := newPair(t, 1, 64)
	qp := p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cm.Connect(qp, p.srvNode, "no-such-service", p.cliClock, time.Second); err != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	l1, err := p.cm.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	if _, err := p.cm.Listen("svc"); err != ErrDuplicateSvc {
		t.Fatalf("err = %v, want ErrDuplicateSvc", err)
	}
}

func TestCMConnectTimeout(t *testing.T) {
	p := newPair(t, 1, 64)
	lis, err := p.cm.Listen("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	qp := p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	// Nobody accepts: the real-time cap fires.
	if _, err := p.cm.Connect(qp, p.srvNode, "slow", p.cliClock, 20*time.Millisecond); err != ErrConnectTimeout {
		t.Fatalf("err = %v, want ErrConnectTimeout", err)
	}
}

func TestCMReject(t *testing.T) {
	p := newPair(t, 1, 64)
	lis, err := p.cm.Listen("reject-me")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		req, ok := lis.Accept(p.srvClock)
		if ok {
			req.Reject(ErrRefused)
		}
	}()
	qp := p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cm.Connect(qp, p.srvNode, "reject-me", p.cliClock, time.Second); err != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestCQWaitDeadline(t *testing.T) {
	p := newPair(t, 1, 64)
	clk := simnet.NewVClock(0)
	// Nothing pending and nothing that could post: the idle simulation
	// ends the wait at the virtual deadline.
	_, ok, timedOut := p.srvRecv.WaitDeadline(clk, 5000)
	if ok || !timedOut {
		t.Fatalf("ok=%v timedOut=%v", ok, timedOut)
	}
	if clk.Now() != 5000 {
		t.Fatalf("clock = %v, want advanced to deadline 5000", clk.Now())
	}
	// Without a deadline the silence is still reported, and costs nothing.
	if _, ok, timedOut = p.srvRecv.WaitDeadline(clk, simnet.Never); ok || !timedOut || clk.Now() != 5000 {
		t.Fatalf("no deadline: ok=%v timedOut=%v clock=%v, want a timeout at 5000", ok, timedOut, clk.Now())
	}
	// A completion after the deadline is requeued, not consumed.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	early := simnet.NewVClock(0)
	_, ok, timedOut = p.srvRecv.WaitDeadline(early, 1)
	if ok || !timedOut {
		t.Fatalf("pre-arrival deadline: ok=%v timedOut=%v", ok, timedOut)
	}
	if p.srvRecv.Len() != 1 {
		t.Fatal("completion was consumed despite missed deadline")
	}
	wc, ok, timedOut := p.srvRecv.WaitDeadline(early, 1<<40)
	if !ok || timedOut || wc.Status != StatusSuccess {
		t.Fatalf("wc=%+v ok=%v timedOut=%v", wc, ok, timedOut)
	}
}

func TestCQEventModeCost(t *testing.T) {
	p := newPair(t, 2, 64)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	pollClk := simnet.NewVClock(0)
	wc, _ := p.srvRecv.Wait(pollClk)
	pollCost := pollClk.Now() - wc.Time

	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	p.srvRecv.UseEvents = true
	evClk := simnet.NewVClock(0)
	wc2, _ := p.srvRecv.Wait(evClk)
	evCost := evClk.Now() - wc2.Time
	if evCost <= pollCost {
		t.Fatalf("event cost %v should exceed poll cost %v", evCost, pollCost)
	}
}

func TestWireBytes(t *testing.T) {
	cfg := testConfig() // MTU 2048, header 30
	if got := wireBytes(0, cfg); got != 30 {
		t.Fatalf("empty = %d", got)
	}
	if got := wireBytes(100, cfg); got != 130 {
		t.Fatalf("one packet = %d, want 130", got)
	}
	if got := wireBytes(4096, cfg); got != 4096+2*30 {
		t.Fatalf("two packets = %d, want %d", got, 4096+60)
	}
	if got := wireBytes(4097, cfg); got != 4097+3*30 {
		t.Fatalf("three packets = %d, want %d", got, 4097+90)
	}
}

func TestStringers(t *testing.T) {
	if OpSend.String() != "SEND" || OpRDMARead.String() != "RDMA_READ" {
		t.Fatal("opcode strings")
	}
	if StatusSuccess.String() != "success" || StatusFlushed.String() != "flushed" {
		t.Fatal("status strings")
	}
	if StateRTS.String() != "RTS" || StateErr.String() != "ERR" {
		t.Fatal("state strings")
	}
	if RC.String() != "RC" || UD.String() != "UD" {
		t.Fatal("qptype strings")
	}
}

func TestHCAUtilization(t *testing.T) {
	p := newPair(t, 4, 1024)
	for i := 0; i < 3; i++ {
		if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("tick")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.cliSend.Wait(p.cliClock); !ok {
			t.Fatal("no completion")
		}
	}
	send, _ := p.cliHCA.Utilization()
	if send != 300 { // 3 sends × SendProc 100
		t.Fatalf("send busy = %v, want 300", send)
	}
	_, recv := p.srvHCA.Utilization()
	if recv != 300 {
		t.Fatalf("recv busy = %v, want 300", recv)
	}
}

// simnetClock and testRealCap are small helpers for auxiliary test
// goroutines.
func simnetClock() *simnet.VClock { return simnet.NewVClock(0) }

const testRealCap = 5 * time.Second

func TestCMTypeMismatchRejected(t *testing.T) {
	// An RC dialer must not be paired with a UD acceptor.
	p := newPair(t, 1, 64)
	lis, err := p.cm.Listen("mismatch")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		clk := simnetClock()
		req, ok := lis.Accept(clk)
		if !ok {
			return
		}
		cq := p.srvHCA.CreateCQ()
		udQP := p.srvHCA.NewQP(UD, cq, cq)
		if err := udQP.Modify(StateInit); err != nil {
			return
		}
		if err := req.Accept(udQP, clk); err != ErrBadState {
			t.Errorf("mismatched Accept err = %v, want ErrBadState", err)
		}
		req.Reject(ErrBadState)
	}()
	qp := p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cm.Connect(qp, p.srvNode, "mismatch", p.cliClock, testRealCap); err == nil {
		t.Fatal("mismatched transports should not connect")
	}
}
