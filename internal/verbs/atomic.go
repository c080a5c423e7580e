package verbs

import (
	"encoding/binary"

	"repro/internal/simnet"
)

// InfiniBand atomic fetch-and-add: a 64-bit add executed by the target
// HCA on registered memory with no remote software involvement. The
// paper's related work (§III, Vaidyanathan et al.) builds data-center
// services — distributed lock management among them — on exactly these
// verbs; they complete the substrate here.
//
// Atomicity is per target HCA: the HCA serializes atomics against each
// other (as the hardware does), and the verbs layer performs the memory
// update under that serialization. Concurrent plain RDMA to the same
// location is, like on real hardware, the caller's problem.

// opAtomicFetchAdd is the opcode an atomic's completion carries.
const opAtomicFetchAdd Opcode = 0x10

// AtomicWR is a fetch-and-add work request. The 8-byte result (the
// prior value at the remote address) lands in Result after the
// completion is harvested from the send CQ.
type AtomicWR struct {
	// ID is echoed in the completion.
	ID uint64
	// RemoteAddr names an 8-byte-aligned location in a remote MR.
	RemoteAddr uint64
	RKey       uint32
	// Add is the addend.
	Add uint64
	// Result receives the prior remote value (written before the WC is
	// posted; read it only after harvesting the completion).
	Result *uint64
}

// atomicWireBytes is the request/response size on the wire.
const atomicWireBytes = 28

// PostAtomic posts an atomic work request on a connected RC queue pair.
// The outcome arrives on the send CQ with the request's ID.
func (q *QP) PostAtomic(clk *simnet.VClock, wr AtomicWR) error {
	if q.state != stateRTS {
		return errBadState
	}
	clk.Advance(q.hca.cfg.PostOverhead)
	dst, err := q.rdmaPeer(q.remote)
	if err != nil {
		return err
	}
	cfg := q.hca.cfg

	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc
	reqArrive, derr := q.hca.fabric.Deliver(q.hca.node, dst.hca.node, depart, atomicWireBytes)
	if derr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: opAtomicFetchAdd, Status: statusTransportError, QPN: q.qpn, Time: depart})
		return nil
	}

	mr, ok := dst.hca.lookupMR(wr.RKey)
	if !ok {
		q.sendCQ.post(WC{ID: wr.ID, Op: opAtomicFetchAdd, Status: statusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}
	cell, rerr := mr.rdmaRange(wr.RemoteAddr, 8)
	if rerr != nil || wr.RemoteAddr%8 != 0 {
		q.sendCQ.post(WC{ID: wr.ID, Op: opAtomicFetchAdd, Status: statusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}

	// The target HCA serializes atomics: the update happens inside the
	// engine's reserved slot.
	opStart := dst.hca.atomicEngine.Acquire(reqArrive, cfg.RDMAProc)
	prior := binary.LittleEndian.Uint64(cell)
	binary.LittleEndian.PutUint64(cell, prior+wr.Add)
	respDepart := opStart + cfg.RDMAProc
	respArrive, derr := dst.hca.fabric.Deliver(dst.hca.node, q.hca.node, respDepart, atomicWireBytes)
	if derr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: opAtomicFetchAdd, Status: statusTransportError, QPN: q.qpn, Time: respDepart})
		return nil
	}
	if wr.Result != nil {
		*wr.Result = prior
	}
	done := q.hca.recvEngine.Acquire(respArrive, cfg.RecvProc) + cfg.RecvProc
	q.sendCQ.post(WC{ID: wr.ID, Op: opAtomicFetchAdd, Status: StatusSuccess, ByteLen: 8, QPN: q.qpn, Time: done})
	return nil
}
