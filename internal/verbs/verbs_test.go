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
func newPair(t testing.TB, nRecv, bufSize int) *pair {
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
		MTU:             2048,
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
		if err := p.cliQP.PostRecv(RecvWR{ID: uint64(1000 + i), Len: bufSize}); err != nil {
			t.Fatal(err)
		}
		if err := p.srvQP.PostRecv(RecvWR{ID: uint64(2000 + i), Len: bufSize}); err != nil {
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

	if qp.state != stateReset {
		t.Fatalf("initial state = %v", qp.state)
	}
	// Skipping INIT is illegal.
	if err := qp.Modify(stateRTR); err != errBadState {
		t.Fatalf("RESET->RTR = %v, want ErrBadState", err)
	}
	for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
		if err := qp.Modify(st); err != nil {
			t.Fatalf("to %v: %v", st, err)
		}
	}
	// Going backwards is illegal.
	if err := qp.Modify(StateInit); err != errBadState {
		t.Fatalf("RTS->INIT = %v, want ErrBadState", err)
	}
	// Any state can move to ERR, and ERR recycles through RESET.
	if err := qp.Modify(stateErr); err != nil {
		t.Fatal(err)
	}
	if err := qp.Modify(stateReset); err != nil {
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
	if err := qp.PostRecv(RecvWR{Len: 8}); err != errBadState {
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
	if err := qp.PostSend(clk, SendWR{Op: OpSend, Local: []byte("x")}); err != errBadState {
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
	if len(mr.Bytes()) != 4096 || mr.RKey() == 0 || mr.VA() == 0 {
		t.Fatalf("bad MR: %+v", mr)
	}

	// Range checks.
	if _, err := mr.rdmaRange(mr.VA(), 4096); err != nil {
		t.Fatalf("full range: %v", err)
	}
	if _, err := mr.rdmaRange(mr.VA()+4000, 200); err != errOutOfBounds {
		t.Fatalf("overflow range err = %v, want ErrOutOfBounds", err)
	}
	if _, err := mr.rdmaRange(mr.VA()-1, 1); err != errOutOfBounds {
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
	if _, err := h1.RegisterMR(pd2, make([]byte, 8), nil); err != errPDMismatch {
		t.Fatalf("cross-HCA PD err = %v, want ErrPDMismatch", err)
	}
	if _, err := h1.RegisterMR(nil, make([]byte, 8), nil); err != errPDMismatch {
		t.Fatalf("nil PD err = %v, want ErrPDMismatch", err)
	}
}

func TestSendRecvRoundtrip(t *testing.T) {
	p := newPair(t, 4, 1024)
	payload := []byte("hello, verbs")

	post := p.cliClock.Now()
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 7, Op: OpSend, Local: payload}); err != nil {
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

	// Remote receive completion carries the data.
	rwc, ok := p.srvRecv.Wait(p.srvClock)
	if !ok || rwc.Status != StatusSuccess || rwc.Op != OpRecv {
		t.Fatalf("recv WC = %+v ok=%v", rwc, ok)
	}
	if rwc.ByteLen != len(payload) || !bytes.Equal(rwc.Buf, payload) {
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
		if !ok || wc.Status != StatusSuccess || wc.ByteLen != len(data) || !bytes.Equal(wc.Buf, data) {
			return false
		}
		p.srvRecv.Recycle(wc.Buf)
		return p.srvQP.PostRecv(RecvWR{Len: 4096}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecvBufferContent: a receive posted with a caller-owned buffer
// lands the message there.
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
	if !bytes.Equal(buf[:wc.ByteLen], msg) || &wc.Buf[0] != &buf[0] {
		t.Fatalf("buffer = %q, want %q in the posted buffer", buf[:wc.ByteLen], msg)
	}
}

// TestRecvReservationLandsInPool: a reservation holds no memory; the
// message lands in a buffer from the receiving CQ's pool sized to it,
// and a recycled buffer carries the next message of its size class.
func TestRecvReservationLandsInPool(t *testing.T) {
	p := newPair(t, 0, 0)
	recv := func(msg string) []byte {
		t.Helper()
		if err := p.srvQP.PostRecv(RecvWR{ID: 5, Len: 100}); err != nil {
			t.Fatal(err)
		}
		if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte(msg)}); err != nil {
			t.Fatal(err)
		}
		wc, ok := p.srvRecv.Wait(p.srvClock)
		if !ok || wc.ID != 5 || wc.Status != StatusSuccess || string(wc.Buf) != msg {
			t.Fatalf("wc = %+v, want %q landed", wc, msg)
		}
		return wc.Buf
	}
	first := recv("payload-bytes-land-in-the-pool")
	if cap(first) != 64 {
		t.Fatalf("landing buffer cap = %d, want the 64-byte size class", cap(first))
	}
	p.srvRecv.Recycle(first)
	if second := recv("and-again"); &second[0] != &first[0] {
		t.Fatal("a recycled buffer was not reused for the next message")
	}
}

func TestRNRWhenNoRecvPosted(t *testing.T) {
	p := newPair(t, 0, 0)
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != statusRNRRetryExceeded {
		t.Fatalf("wc = %+v, want RNR", wc)
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	p := newPair(t, 0, 0)
	if err := p.srvQP.PostRecv(RecvWR{ID: 9, Len: 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("too big for four")}); err != nil {
		t.Fatal(err)
	}
	swc, _ := p.cliSend.Wait(p.cliClock)
	if swc.Status != statusRemoteError {
		t.Fatalf("sender status = %v, want remote-error", swc.Status)
	}
	rwc, _ := p.srvRecv.Wait(p.srvClock)
	if rwc.Status != statusRemoteError || rwc.ID != 9 {
		t.Fatalf("receiver wc = %+v", rwc)
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
	if wc.Status != statusRemoteError {
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
	if wc.Status != statusRemoteError {
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
	if wc.Status != statusTransportError {
		t.Fatalf("status = %v, want transport-error", wc.Status)
	}
}

func TestUDSendAndDrop(t *testing.T) {
	nw := simnet.NewNetwork()
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	f := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9, Propagation: 100, MTU: 2048})
	ha := NewHCA(a, f, testConfig())
	hb := NewHCA(b, f, testConfig())
	aclk, bclk := simnet.NewVClock(0), simnet.NewVClock(0)

	acq := ha.CreateCQ()
	bcqS, bcqR := hb.CreateCQ(), hb.CreateCQ()
	qa := ha.NewQP(UD, acq, acq)
	qb := hb.NewQP(UD, bcqS, bcqR)
	for _, qp := range []*QP{qa, qb} {
		for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
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
	if err := qb.PostRecv(RecvWR{ID: 3, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: []byte("found"), Dest: ah}); err != nil {
		t.Fatal(err)
	}
	if _, ok := acq.Wait(aclk); !ok {
		t.Fatal("no send completion")
	}
	rwc, ok := bcqR.Wait(bclk)
	if !ok || rwc.Status != StatusSuccess || string(rwc.Buf) != "found" {
		t.Fatalf("rwc = %+v", rwc)
	}

	// UD datagrams are limited to the MTU.
	big := make([]byte, 4096)
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: big, Dest: ah}); err != errTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// UD sends require an address handle.
	if err := qa.PostSend(aclk, SendWR{Op: OpSend, Local: []byte("x")}); err != errNoAddress {
		t.Fatalf("err = %v, want ErrNoAddress", err)
	}
	// UD cannot do RDMA.
	if err := qa.PostSend(aclk, SendWR{Op: OpRDMARead, Local: make([]byte, 64), Dest: ah}); err != errBadState {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
}

func TestSRQSharedAcrossQPs(t *testing.T) {
	p := newPair(t, 0, 0)
	// New server-side QPs draw from one SRQ.
	srq := p.srvHCA.CreateSRQSized(0)
	scq := p.srvHCA.CreateCQ()
	q1 := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	q2 := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	for _, qp := range []*QP{q1, q2} {
		for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
			if err := qp.Modify(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srq.Post(RecvWR{ID: 1, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if err := srq.Post(RecvWR{ID: 2, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if srq.q.n != 2 {
		t.Fatalf("SRQ len = %d", srq.q.n)
	}
	// Posting to a QP with an SRQ attached routes to the shared ring.
	if err := q1.PostRecv(RecvWR{ID: 3, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if srq.q.n != 3 {
		t.Fatalf("SRQ len after QP-routed post = %d, want 3", srq.q.n)
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
	if srq.q.n != 0 {
		t.Fatalf("SRQ len after sends = %d", srq.q.n)
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
// capacity, Post beyond it must fail with errSRQFull and leave the ring
// unchanged, and popping a buffer must make room again.
func TestSRQRingFull(t *testing.T) {
	p := newPair(t, 0, 0)
	srq := p.srvHCA.CreateSRQSized(2)
	if srq.cap != 2 {
		t.Fatalf("cap = %d, want 2", srq.cap)
	}
	for i := 0; i < 2; i++ {
		if err := srq.Post(RecvWR{ID: uint64(i), Len: 16}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := srq.Post(RecvWR{ID: 9, Len: 16}); err != errSRQFull {
		t.Fatalf("post beyond cap: err = %v, want ErrSRQFull", err)
	}
	if srq.q.n != 2 {
		t.Fatalf("failed post changed ring: len = %d", srq.q.n)
	}
	// The QP-routed path surfaces the same error.
	scq := p.srvHCA.CreateCQ()
	qp := p.srvHCA.NewQPWithSRQ(RC, scq, scq, srq)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if err := qp.PostRecv(RecvWR{ID: 10, Len: 16}); err != errSRQFull {
		t.Fatalf("QP PostRecv on full SRQ: err = %v, want ErrSRQFull", err)
	}
	if _, ok := srq.pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := srq.Post(RecvWR{ID: 11, Len: 16}); err != nil {
		t.Fatalf("post after pop: %v", err)
	}
	// A capacity <= 0 selects the default.
	if c := p.srvHCA.CreateSRQSized(0).cap; c != defaultSRQCap {
		t.Fatalf("CreateSRQSized(0).cap = %d, want %d", c, defaultSRQCap)
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
	for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
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
	if !ok || wc.Status != statusRNRRetryExceeded {
		t.Fatalf("send into zero-credit SRQ: wc = %+v, want StatusRNRRetryExceeded", wc)
	}

	// One credit reposted: the retry lands.
	if err := srq.Post(RecvWR{ID: 2, Len: 64}); err != nil {
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
	if !ok || rwc.Status != StatusSuccess || string(rwc.Buf) != "served" {
		t.Fatalf("recv wc = %+v", rwc)
	}
	if srq.q.n != 0 {
		t.Fatalf("SRQ len = %d after consume", srq.q.n)
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

// TestRecvQueueRuns: a credit window of identical reservations is one
// run of the ring, and receives still pop in the order they were posted
// — reservations of another length or id, and caller-owned buffers,
// each start a run of their own.
func TestRecvQueueRuns(t *testing.T) {
	var q recvQueue
	for i := 0; i < 64; i++ {
		q.push(RecvWR{Len: 8248})
	}
	if q.n != 64 || q.nruns != 1 || len(q.runs) != 1 {
		t.Fatalf("64 reservations: n=%d runs=%d cap=%d, want 64 in one run", q.n, q.nruns, len(q.runs))
	}
	buf := make([]byte, 16)
	more := []RecvWR{{Len: 64}, {Len: 64}, {ID: 7, Len: 64}, {Len: 16, Buf: buf}, {Len: 16, Buf: buf}, {Len: 8248}}
	for _, wr := range more {
		q.push(wr)
	}
	want := append(make([]RecvWR, 64), more...)
	for i := range want[:64] {
		want[i] = RecvWR{Len: 8248}
	}
	for i := 0; i < len(want); i++ {
		w := want[i]
		got, ok := q.pop()
		if !ok || got.ID != w.ID || got.Len != w.Len || (got.Buf == nil) != (w.Buf == nil) {
			t.Fatalf("pop %d = (%+v, %v), want %+v", i, got, ok, w)
		}
		if i == 63 {
			q.push(RecvWR{Len: 8248}) // a repost joins the tail run
			want = append(want, RecvWR{Len: 8248})
		}
	}
	if _, ok := q.pop(); ok || q.nruns != 0 {
		t.Fatalf("drained queue still holds %d runs", q.nruns)
	}
}

// TestCQDestroyDropsCompletions: nothing polls a destroyed CQ, so it
// keeps none of the completions queued on it — a flushed credit window
// included.
func TestCQDestroyDropsCompletions(t *testing.T) {
	p := newPair(t, 3, 64)
	p.cliQP.Destroy()
	if p.cliRecv.Len() != 3 {
		t.Fatalf("flushed completions = %d, want 3", p.cliRecv.Len())
	}
	p.cliRecv.Destroy()
	if n := p.cliRecv.Len(); n != 0 {
		t.Fatalf("destroyed CQ holds %d completions", n)
	}
	if _, ok := p.cliRecv.Wait(p.cliClock); ok {
		t.Fatal("Wait on a destroyed CQ returned a completion")
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
	if _, err := p.cm.Listen("svc"); err != errDuplicateSvc {
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
	if _, err := p.cm.Connect(qp, p.srvNode, "slow", p.cliClock, 20*time.Millisecond); err != errConnectTimeout {
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
	var wc WC
	// Nothing pending and nothing that could post: the idle simulation
	// ends the wait at the virtual deadline.
	ok, timedOut := p.srvRecv.WaitDeadline(clk, 5000, &wc)
	if ok || !timedOut {
		t.Fatalf("ok=%v timedOut=%v", ok, timedOut)
	}
	if clk.Now() != 5000 {
		t.Fatalf("clock = %v, want advanced to deadline 5000", clk.Now())
	}
	// Without a deadline the silence is still reported, and costs nothing.
	if ok, timedOut = p.srvRecv.WaitDeadline(clk, simnet.Never, &wc); ok || !timedOut || clk.Now() != 5000 {
		t.Fatalf("no deadline: ok=%v timedOut=%v clock=%v, want a timeout at 5000", ok, timedOut, clk.Now())
	}
	// A completion after the deadline is requeued, not consumed.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	early := simnet.NewVClock(0)
	ok, timedOut = p.srvRecv.WaitDeadline(early, 1, &wc)
	if ok || !timedOut {
		t.Fatalf("pre-arrival deadline: ok=%v timedOut=%v", ok, timedOut)
	}
	if p.srvRecv.Len() != 1 {
		t.Fatal("completion was consumed despite missed deadline")
	}
	ok, timedOut = p.srvRecv.WaitDeadline(early, 1<<40, &wc)
	if !ok || timedOut || wc.Status != StatusSuccess {
		t.Fatalf("wc=%+v ok=%v timedOut=%v", wc, ok, timedOut)
	}
}

// TestCQWaitDeadlineRequeueKeepsOrder: a completion harvested past the
// deadline goes back to the head of the queue, so the ones behind it
// still come out after it, in posting order.
func TestCQWaitDeadlineRequeueKeepsOrder(t *testing.T) {
	p := newPair(t, 4, 64)
	for id := uint64(1); id <= 3; id++ {
		if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: id, Op: OpSend, Local: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	var wc WC
	if ok, timedOut := p.cliSend.WaitDeadline(simnet.NewVClock(0), 1, &wc); ok || !timedOut {
		t.Fatalf("pre-completion deadline: ok=%v timedOut=%v", ok, timedOut)
	}
	if p.cliSend.Drained() {
		t.Fatal("Drained after a requeue")
	}
	clk := simnet.NewVClock(0)
	for id := uint64(1); id <= 3; id++ {
		if ok, timedOut := p.cliSend.WaitDeadline(clk, simnet.Never, &wc); !ok || timedOut || wc.ID != id {
			t.Fatalf("harvest %d: (ok=%v timedOut=%v) ID %d, want ID %d", id, ok, timedOut, wc.ID, id)
		}
	}
}

// TestPollSpinSetsDrained: the spin poll that takes the last queued
// completion records the queue as drained; one that leaves a completion
// behind, or finds one out of reach, does not.
func TestPollSpinSetsDrained(t *testing.T) {
	p := newPair(t, 4, 64)
	for id := uint64(1); id <= 2; id++ {
		if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: id, Op: OpSend, Local: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	clk := simnet.NewVClock(0)
	var wc WC
	if p.cliSend.PollSpin(clk, 0, &wc) || p.cliSend.Drained() {
		t.Fatalf("out-of-reach poll: took one or set Drained (%v)", p.cliSend.Drained())
	}
	spin := simnet.Millisecond // covers both completions
	if !p.cliSend.PollSpin(clk, spin, &wc) || wc.ID != 1 || p.cliSend.Drained() {
		t.Fatalf("first spin poll: ID %d, Drained %v; want ID 1, not drained", wc.ID, p.cliSend.Drained())
	}
	if !p.cliSend.PollSpin(clk, spin, &wc) || wc.ID != 2 || !p.cliSend.Drained() {
		t.Fatalf("emptying spin poll: ID %d, Drained %v; want ID 2, drained", wc.ID, p.cliSend.Drained())
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
	h := newPair(t, 0, 0).cliHCA // fabric MTU 2048, header 30
	if got := h.wireBytes(0); got != 30 {
		t.Fatalf("empty = %d", got)
	}
	if got := h.wireBytes(100); got != 130 {
		t.Fatalf("one packet = %d, want 130", got)
	}
	if got := h.wireBytes(4096); got != 4096+2*30 {
		t.Fatalf("two packets = %d, want %d", got, 4096+60)
	}
	if got := h.wireBytes(4097); got != 4097+3*30 {
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
	if stateRTS.String() != "RTS" || stateErr.String() != "ERR" {
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
		if err := req.Accept(udQP, clk); err != errBadState {
			t.Errorf("mismatched Accept err = %v, want ErrBadState", err)
		}
		req.Reject(errBadState)
	}()
	qp := p.cliHCA.NewQP(RC, p.cliSend, p.cliRecv)
	if err := qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cm.Connect(qp, p.srvNode, "mismatch", p.cliClock, testRealCap); err == nil {
		t.Fatal("mismatched transports should not connect")
	}
}
