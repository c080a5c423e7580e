package verbs

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
)

// An RC SEND through a one-shot drop succeeds after retransmission, with
// the arrival inflated by at least one AckTimeout.
func TestRCRetransmitsThroughLoss(t *testing.T) {
	// Baseline: lossless send, record completion times.
	base := newPair(t, 4, 256)
	if err := base.cliQP.PostSend(base.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	baseWC, ok := base.srvRecv.TryPollWith(base.srvClock)
	if !ok || baseWC.Status != StatusSuccess {
		t.Fatalf("baseline recv: ok=%v wc=%+v", ok, baseWC)
	}

	// Same topology, but the first packet is dropped.
	p := newPair(t, 4, 256)
	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 1})
	p.fab.SetFaults(fi)
	fi.DropNext(p.cliNode, p.srvNode, 1)

	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	swc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || swc.Status != StatusSuccess {
		t.Fatalf("send completion after retransmit: ok=%v wc=%+v", ok, swc)
	}
	rwc, ok := p.srvRecv.TryPollWith(p.srvClock)
	if !ok || rwc.Status != StatusSuccess {
		t.Fatalf("recv after retransmit: ok=%v wc=%+v", ok, rwc)
	}
	if got := p.cliHCA.Retransmits(); got != 1 {
		t.Fatalf("Retransmits() = %d, want 1", got)
	}
	ackTimeout := p.cliHCA.cfg.AckTimeout
	if rwc.Time < baseWC.Time+ackTimeout {
		t.Fatalf("retransmitted arrival %d not inflated over baseline %d by AckTimeout %d",
			rwc.Time, baseWC.Time, ackTimeout)
	}
}

// With 100% loss the RC sender exhausts its retry budget: the WR
// completes with statusRetryExceeded and the QP transitions to ERR.
func TestRCRetryExhaustion(t *testing.T) {
	p := newPair(t, 4, 256)
	p.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 1, DropRate: 1.0}))

	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 9, Op: OpSend, Local: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok {
		t.Fatal("no completion after retry exhaustion")
	}
	if wc.Status != statusRetryExceeded {
		t.Fatalf("status = %v, want retry-exceeded", wc.Status)
	}
	if st := p.cliQP.state; st != stateErr {
		t.Fatalf("QP state after retry exhaustion = %v, want ERR", st)
	}
	if got := p.cliHCA.Retransmits(); got != retryCount {
		t.Fatalf("Retransmits() = %d, want retryCount = %d", got, retryCount)
	}
	// The connection is dead: further sends are rejected at post time.
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 10, Op: OpSend, Local: []byte("x")}); err != errBadState {
		t.Fatalf("PostSend on errored QP = %v, want ErrBadState", err)
	}
}

// A corrupted packet is also retransmitted (it consumed the wire but
// failed its checksum at the receiver).
func TestRCRetransmitsThroughCorruption(t *testing.T) {
	p := newPair(t, 4, 256)
	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 5, CorruptRate: 0.3})
	p.fab.SetFaults(fi)

	payload := []byte("checksummed payload")
	for i := 0; i < 20; i++ {
		if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: uint64(i), Op: OpSend, Local: payload}); err != nil {
			t.Fatal(err)
		}
		wc, ok := p.srvRecv.TryPollWith(p.srvClock)
		if !ok || wc.Status != StatusSuccess {
			t.Fatalf("send %d: recv ok=%v wc=%+v", i, ok, wc)
		}
		if err := p.srvQP.PostRecv(RecvWR{ID: uint64(5000 + i), Len: 256}); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.cliSend.TryPollWith(p.cliClock); !ok {
			t.Fatalf("send %d: no local completion", i)
		}
	}
	if p.cliHCA.Retransmits() == 0 {
		t.Fatal("CorruptRate 0.3 over 20 sends caused zero retransmissions")
	}
	_, _, corrupted := fi.Stats()
	if corrupted == 0 {
		t.Fatal("injector recorded no corruptions")
	}
}

// RDMA READ retransmits on both legs and still moves correct bytes.
func TestRDMAReadThroughLoss(t *testing.T) {
	p := newPair(t, 2, 256)
	srvBuf := make([]byte, 1024)
	copy(srvBuf, []byte("remote data"))
	srvMR, err := p.srvHCA.RegisterMR(p.srvPD, srvBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliBuf := make([]byte, 11)
	if _, err := p.cliHCA.RegisterMR(p.cliPD, cliBuf, nil); err != nil {
		t.Fatal(err)
	}

	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 2})
	p.fab.SetFaults(fi)
	fi.DropNext(p.cliNode, p.srvNode, 1) // lose the read request once
	fi.DropNext(p.srvNode, p.cliNode, 1) // lose the response once

	err = p.cliQP.PostSend(p.cliClock, SendWR{
		ID: 1, Op: OpRDMARead, Local: cliBuf,
		RemoteAddr: srvMR.VA(), RKey: srvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("RDMA read through loss: ok=%v wc=%+v", ok, wc)
	}
	if !bytes.Equal(cliBuf, []byte("remote data")) {
		t.Fatalf("read bytes = %q, want %q", cliBuf, "remote data")
	}
	if got := p.cliHCA.Retransmits(); got != 2 {
		t.Fatalf("Retransmits() = %d, want 2 (one per leg)", got)
	}
}

// RNR retry: a SEND into a QP with no posted buffer burns rnrRetry
// retries (counted as retransmissions) but does NOT error the QP, so
// traffic flows again once a buffer appears.
func TestRNRRetryExhaustionIsNonFatal(t *testing.T) {
	p := newPair(t, 0, 0) // no receive buffers posted

	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 1, Op: OpSend, Local: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != statusRNRRetryExceeded {
		t.Fatalf("send with no receiver buffer: ok=%v status=%v, want rnr-retry-exceeded", ok, wc.Status)
	}
	if got := p.cliHCA.Retransmits(); got != rnrRetry {
		t.Fatalf("Retransmits() = %d, want rnrRetry = %d", got, rnrRetry)
	}
	// QP must NOT be errored by RNR exhaustion (only transport retry
	// exhaustion kills it); a buffer arriving later lets traffic flow.
	if st := p.cliQP.state; st != stateRTS {
		t.Fatalf("QP state after RNR exhaustion = %v, want RTS", st)
	}
	if err := p.srvQP.PostRecv(RecvWR{ID: 1, Len: 16}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(p.cliClock, SendWR{ID: 2, Op: OpSend, Local: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	wc, ok = p.cliSend.TryPollWith(p.cliClock)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("send after buffer posted: ok=%v status=%v", ok, wc.Status)
	}
}

// UD loss is silent: the sender sees success, the receiver sees nothing.
func TestUDLossIsSilent(t *testing.T) {
	nw := simnet.NewNetwork()
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	fab := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9, Propagation: 200, SwitchDelay: 100})
	ha := NewHCA(a, fab, testConfig())
	hb := NewHCA(b, fab, testConfig())
	clk := simnet.NewVClock(0)

	sendCQ, recvCQ := ha.CreateCQ(), ha.CreateCQ()
	qa := ha.NewQP(UD, sendCQ, recvCQ)
	bSend, bRecv := hb.CreateCQ(), hb.CreateCQ()
	qb := hb.NewQP(UD, bSend, bRecv)
	for _, q := range []*QP{qa, qb} {
		if err := q.Modify(StateInit); err != nil {
			t.Fatal(err)
		}
		if err := q.Modify(stateRTR); err != nil {
			t.Fatal(err)
		}
		if err := q.Modify(stateRTS); err != nil {
			t.Fatal(err)
		}
	}
	if err := qb.PostRecv(RecvWR{ID: 1, Len: 64}); err != nil {
		t.Fatal(err)
	}

	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 1})
	fab.SetFaults(fi)
	fi.DropNext(a, b, 1)

	err := qa.PostSend(clk, SendWR{ID: 1, Op: OpSend, Local: []byte("dgram"), Dest: &AddressHandle{Target: hb, QPN: qb.QPN()}})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := sendCQ.TryPollWith(clk)
	if !ok || wc.Status != StatusSuccess {
		t.Fatalf("UD send over loss: ok=%v status=%v, want silent success", ok, wc.Status)
	}
	if ha.Retransmits() != 0 {
		t.Fatal("UD must not retransmit")
	}
	if _, ok := bRecv.TryPollWith(simnet.NewVClock(0)); ok {
		t.Fatal("dropped datagram was delivered")
	}
}
