package verbs

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestAtomicFetchAdd(t *testing.T) {
	p := newPair(t, 1, 64)
	buf := make([]byte, 64)
	binary.LittleEndian.PutUint64(buf[8:], 100)
	mr, err := p.srvHCA.RegisterMR(p.srvPD, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prior uint64
	err = p.cliQP.PostAtomic(p.cliClock, AtomicWR{
		ID:         1,
		RemoteAddr: mr.VA() + 8, RKey: mr.RKey(),
		Add: 42, Result: &prior,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := p.cliSend.Wait(p.cliClock)
	if !ok || wc.Status != StatusSuccess || wc.Op != opAtomicFetchAdd {
		t.Fatalf("wc = %+v", wc)
	}
	if prior != 100 {
		t.Fatalf("prior = %d, want 100", prior)
	}
	if got := binary.LittleEndian.Uint64(buf[8:]); got != 142 {
		t.Fatalf("cell = %d, want 142", got)
	}
	// No remote software involvement.
	if p.srvRecv.Len() != 0 {
		t.Fatal("atomic generated a remote completion")
	}
}

func TestAtomicErrors(t *testing.T) {
	p := newPair(t, 1, 64)
	buf := make([]byte, 16)
	mr, _ := p.srvHCA.RegisterMR(p.srvPD, buf, nil)

	// Unaligned address.
	if err := p.cliQP.PostAtomic(p.cliClock, AtomicWR{
		RemoteAddr: mr.VA() + 3, RKey: mr.RKey(), Add: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if wc, _ := p.cliSend.Wait(p.cliClock); wc.Status != statusRemoteError {
		t.Fatalf("unaligned: %+v", wc)
	}
	// Bad rkey.
	if err := p.cliQP.PostAtomic(p.cliClock, AtomicWR{
		RemoteAddr: mr.VA(), RKey: 999999, Add: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if wc, _ := p.cliSend.Wait(p.cliClock); wc.Status != statusRemoteError {
		t.Fatalf("bad rkey: %+v", wc)
	}
	// Dead peer.
	p.srvNode.Fail()
	if err := p.cliQP.PostAtomic(p.cliClock, AtomicWR{
		RemoteAddr: mr.VA(), RKey: mr.RKey(), Add: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if wc, _ := p.cliSend.Wait(p.cliClock); wc.Status != statusTransportError {
		t.Fatalf("dead peer: %+v", wc)
	}
}

func TestAtomicConcurrentFetchAdd(t *testing.T) {
	// Two client QPs hammer one counter; every increment must land
	// (the lock-manager use case from the paper's related work).
	p := newPair(t, 1, 64)
	buf := make([]byte, 8)
	mr, _ := p.srvHCA.RegisterMR(p.srvPD, buf, nil)

	// Second independent connection.
	p2 := struct {
		qp *QP
		cq *CQ
	}{}
	p2.cq = p.cliHCA.CreateCQ()
	p2.qp = p.cliHCA.NewQP(RC, p2.cq, p2.cq)
	if err := p2.qp.Modify(StateInit); err != nil {
		t.Fatal(err)
	}
	lis, err := p.cm.Listen("second")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srvClk := simnet.NewVClock(0)
	acceptOn(p, lis, srvClk, func(req *ConnRequest) {
		srvQP := p.srvHCA.NewQP(RC, p.srvSend, p.srvRecv)
		if err := req.Accept(srvQP, srvClk); err != nil {
			t.Error(err)
		}
	})
	if _, err := p.cm.Connect(p2.qp, p.srvNode, "second", simnet.NewVClock(0), 0); err != nil {
		t.Fatal(err)
	}

	// Both QPs' atomics are in flight at once: each round posts on both
	// before polling either. A deployment has one owner, so one
	// goroutine drives the two clients; the target HCA serializes their
	// updates all the same.
	const perClient = 100
	clks := [2]*simnet.VClock{simnet.NewVClock(0), simnet.NewVClock(0)}
	qps, cqs := [2]*QP{p.cliQP, p2.qp}, [2]*CQ{p.cliSend, p2.cq}
	for i := 0; i < perClient; i++ {
		for c, qp := range qps {
			if err := qp.PostAtomic(clks[c], AtomicWR{
				RemoteAddr: mr.VA(), RKey: mr.RKey(), Add: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		for c, cq := range cqs {
			if wc, ok := cq.Wait(clks[c]); !ok || wc.Status != StatusSuccess {
				t.Fatalf("wc = %+v", wc)
			}
		}
	}
	if got := binary.LittleEndian.Uint64(buf); got != 2*perClient {
		t.Fatalf("counter = %d, want %d (lost updates)", got, 2*perClient)
	}
}

func TestRDMANeverEscapesRegionProperty(t *testing.T) {
	// Property: no (addr, len) combination lets an RDMA read touch
	// bytes outside the registered region — out-of-bounds requests fail
	// with a remote error and move no data.
	p := newPair(t, 1, 64)
	region := make([]byte, 4096)
	for i := range region {
		region[i] = 0xEE
	}
	mr, err := p.srvHCA.RegisterMR(p.srvPD, region, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, n uint16) bool {
		length := int(n)%8192 + 1
		addr := mr.VA() + uint64(off%8192)
		local := make([]byte, length)
		cliMR, err := p.cliHCA.RegisterMR(p.cliPD, local, nil)
		if err != nil {
			return false
		}
		defer p.cliHCA.DeregisterMR(cliMR)
		if err := p.cliQP.PostSend(p.cliClock, SendWR{
			Op: OpRDMARead, Local: local, LocalMR: cliMR,
			RemoteAddr: addr, RKey: mr.RKey(),
		}); err != nil {
			return false
		}
		wc, ok := p.cliSend.Wait(p.cliClock)
		if !ok {
			return false
		}
		inBounds := addr >= mr.VA() && addr-mr.VA()+uint64(length) <= uint64(len(region))
		if inBounds {
			if wc.Status != StatusSuccess {
				return false
			}
			for _, b := range local {
				if b != 0xEE {
					return false
				}
			}
			return true
		}
		// Out of bounds: remote error, destination untouched.
		if wc.Status != statusRemoteError {
			return false
		}
		for _, b := range local {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
