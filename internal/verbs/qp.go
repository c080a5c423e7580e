package verbs

import "repro/internal/simnet"

// QP is a queue pair: the verbs communication endpoint. An RC (reliable
// connected) QP is wired 1:1 to a peer QP by the connection manager; a
// UD (unreliable datagram) QP sends to any peer named by an address
// handle, with silent loss when the receiver has no receive posted.
type QP struct {
	hca    *HCA
	typ    QPType
	qpn    uint32
	sendCQ *CQ
	recvCQ *CQ
	srq    *SRQ // optional shared receive queue

	state  QPState
	recvq  recvQueue
	remote *QP // RC peer, set by the connection manager
}

// NewQP creates a queue pair in the RESET state.
func (h *HCA) NewQP(typ QPType, sendCQ, recvCQ *CQ) *QP {
	qp := &QP{hca: h, typ: typ, sendCQ: sendCQ, recvCQ: recvCQ, state: stateReset}
	qp.qpn = h.registerQP(qp)
	return qp
}

// NewQPWithSRQ creates a queue pair whose receives come from a shared
// receive queue (the MVAPICH-style scalability feature the paper's UCR
// inherits its buffer management from).
func (h *HCA) NewQPWithSRQ(typ QPType, sendCQ, recvCQ *CQ, srq *SRQ) *QP {
	qp := h.NewQP(typ, sendCQ, recvCQ)
	qp.srq = srq
	return qp
}

// QPN reports the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Type reports RC or UD.
func (q *QP) Type() QPType { return q.typ }

// HCA reports the owning adapter.
func (q *QP) HCA() *HCA { return q.hca }

// Modify transitions the state machine, enforcing the legal bring-up
// order RESET→INIT→RTR→RTS (any state may move to ERR, and ERR→RESET
// recycles the QP).
func (q *QP) Modify(next QPState) error {
	if next == stateErr {
		q.state = stateErr
		return nil
	}
	legal := map[QPState]QPState{
		StateInit:  stateReset,
		stateRTR:   StateInit,
		stateRTS:   stateRTR,
		stateReset: stateErr,
	}
	if want, ok := legal[next]; !ok || q.state != want {
		return errBadState
	}
	q.state = next
	return nil
}

// setRemote wires the RC peer (connection-manager internal).
func (q *QP) setRemote(peer *QP) { q.remote = peer }

// PostRecv posts a receive. The QP must be at least INIT. With an SRQ
// attached, receives must be posted to the SRQ instead.
func (q *QP) PostRecv(wr RecvWR) error {
	if q.srq != nil {
		return q.srq.Post(wr)
	}
	if q.state == stateReset || q.state == stateErr {
		return errBadState
	}
	q.recvq.push(wr)
	return nil
}

// popRecv takes the oldest posted receive.
func (q *QP) popRecv() (RecvWR, bool) {
	if q.srq != nil {
		return q.srq.pop()
	}
	return q.recvq.pop()
}

// recvQueue is a FIFO of posted receives. A run of identical
// reservations — an endpoint's whole credit window — is one entry of the
// ring, so the host holds a count, not a work request per credit. The
// ring of runs doubles when full, so a steady consume/repost cycle never
// reallocates.
type recvQueue struct {
	runs  []recvRun
	head  int // the oldest run
	nruns int // runs queued
	n     int // receives queued
}

// recvRun is n copies of one posted receive.
type recvRun struct {
	wr RecvWR
	n  int
}

// sameReservation reports whether b joins a's run: two reservations of
// one length and id. A caller-owned buffer is never a copy of another.
func sameReservation(a, b RecvWR) bool {
	return a.Buf == nil && b.Buf == nil && a.ID == b.ID && a.Len == b.Len
}

func (r *recvQueue) push(wr RecvWR) {
	r.n++
	if r.nruns > 0 {
		if last := &r.runs[(r.head+r.nruns-1)%len(r.runs)]; sameReservation(last.wr, wr) {
			last.n++
			return
		}
	}
	if r.nruns == len(r.runs) {
		nb := make([]recvRun, max(1, 2*len(r.runs)))
		for i := 0; i < r.nruns; i++ {
			nb[i] = r.runs[(r.head+i)%len(r.runs)]
		}
		r.runs, r.head = nb, 0
	}
	r.runs[(r.head+r.nruns)%len(r.runs)] = recvRun{wr: wr, n: 1}
	r.nruns++
}

func (r *recvQueue) pop() (RecvWR, bool) {
	if r.n == 0 {
		return RecvWR{}, false
	}
	r.n--
	run := &r.runs[r.head]
	wr := run.wr
	run.n--
	if run.n == 0 {
		*run = recvRun{}
		r.head = (r.head + 1) % len(r.runs)
		r.nruns--
	}
	return wr, true
}

// Destroy errors the QP, flushes posted receives as StatusFlushed
// completions, and releases the QP number.
func (q *QP) Destroy() {
	q.state = stateErr
	pending := q.recvq
	q.recvq = recvQueue{}
	for wr, ok := pending.pop(); ok; wr, ok = pending.pop() {
		q.recvCQ.post(WC{ID: wr.ID, Op: OpRecv, Status: StatusFlushed, QPN: q.qpn})
	}
	q.hca.unregisterQP(q.qpn)
}

// PostSend posts a send-side work request. The posting cost is charged
// to clk; the outcome is reported asynchronously on the send CQ (like
// real verbs, transport errors surface as completion statuses, not as a
// PostSend error — PostSend errors only for caller mistakes).
func (q *QP) PostSend(clk *simnet.VClock, wr SendWR) error {
	remote, err := q.postCharge(clk, 1)
	if err != nil {
		return err
	}
	return q.dispatchSend(clk, &wr, remote)
}

// PostSendN posts a burst of work requests with a single doorbell ring:
// the first WR pays the full PostOverhead, every further one only the
// coalesced WQE-build cost. A burst of one charges exactly what PostSend
// does. Like real verbs list posting, the burst stops at the first bad
// WR and the error names it; the completions of already-accepted WRs
// still arrive on the CQ.
func (q *QP) PostSendN(clk *simnet.VClock, wrs []SendWR) error {
	if len(wrs) == 0 {
		return nil
	}
	remote, err := q.postCharge(clk, len(wrs))
	if err != nil {
		return err
	}
	for i := range wrs {
		if err := q.dispatchSend(clk, &wrs[i], remote); err != nil {
			return err
		}
	}
	return nil
}

// postCharge validates QP state and charges the doorbell cost for a
// burst of n WRs (one full PostOverhead plus n-1 coalesced builds).
func (q *QP) postCharge(clk *simnet.VClock, n int) (*QP, error) {
	if q.state != stateRTS {
		return nil, errBadState
	}
	clk.Advance(q.hca.cfg.PostOverhead)
	if n > 1 {
		// The 2nd..nth WR build their WQEs without ringing the doorbell.
		clk.Advance(simnet.Duration(n-1) * (q.hca.cfg.PostOverhead / 2))
	}
	return q.remote, nil
}

// dispatchSend routes one already-charged WR into the transport.
func (q *QP) dispatchSend(clk *simnet.VClock, wr *SendWR, remote *QP) error {
	switch wr.Op {
	case OpSend:
		return q.postSendMsg(clk, wr, remote)
	case OpRDMARead:
		return q.postRDMARead(clk, wr, remote)
	case OpRDMAWrite:
		return q.postRDMAWrite(clk, wr, remote)
	default:
		return errBadState
	}
}

// resolveDest picks the destination QP for a send.
func (q *QP) resolveDest(wr *SendWR, remote *QP) (*QP, error) {
	if q.typ == UD {
		if wr.Dest == nil || wr.Dest.Target == nil {
			return nil, errNoAddress
		}
		dst, ok := wr.Dest.Target.lookupQP(wr.Dest.QPN)
		if !ok {
			return nil, nil // datagram to nowhere: silently lost
		}
		return dst, nil
	}
	if remote == nil {
		return nil, errNotConnected
	}
	return remote, nil
}

// transmit pushes bytes from src's node to dst's node through the
// fabric's fault model, retransmitting on loss for RC transports.
//
// On a lossless fabric (no injector installed) the first iteration
// returns immediately with exactly the plain-Deliver arrival time, so
// the retry machinery costs nothing when disabled. On loss, an RC
// sender waits AckTimeout for the missing ACK and retransmits, up to
// retryCount times; exhaustion reports statusRetryExceeded. UD loss is
// silent: the datagram is gone and delivered=false with StatusSuccess,
// like real fire-and-forget datagrams.
func (q *QP) transmit(src, dst *HCA, at simnet.Time, bytes int) (arrive simnet.Time, delivered bool, st Status) {
	cfg := q.hca.cfg
	for attempt := 0; ; attempt++ {
		arr, outcome, derr := src.fabric.DeliverFaulty(src.node, dst.node, at, bytes)
		if derr != nil {
			if q.typ == UD {
				return at, false, StatusSuccess
			}
			return at, false, statusTransportError
		}
		if outcome == simnet.Delivered {
			return arr, true, StatusSuccess
		}
		if q.typ == UD {
			return arr, false, StatusSuccess
		}
		if attempt >= retryCount {
			return arr, false, statusRetryExceeded
		}
		q.hca.noteRetransmit()
		at = arr + cfg.AckTimeout
	}
}

// postSendMsg implements the two-sided SEND of wr.Local followed by
// the optional wr.Local2 gather segment.
func (q *QP) postSendMsg(clk *simnet.VClock, wr *SendWR, remote *QP) error {
	cfg := q.hca.cfg
	n := len(wr.Local) + len(wr.Local2)
	if q.typ == UD && n > q.hca.fabric.Spec().MTU {
		return errTooLarge
	}

	dst, err := q.resolveDest(wr, remote)
	if err != nil {
		return err
	}

	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc

	if dst == nil { // UD datagram to an unknown QP
		q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: depart})
		return nil
	}

	arrive, delivered, st := q.transmit(q.hca, dst.hca, depart, q.hca.wireBytes(n))
	if !delivered {
		if st == statusRetryExceeded {
			// IB semantics: retry exhaustion is fatal to the connection.
			q.Modify(stateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: st, ByteLen: n, QPN: q.qpn, Time: depart})
		return nil
	}

	// The payload is copied now (the sender's call acts as the DMA
	// engine); the stamp says when it becomes visible.
	rstatus, rtime := dst.receive(wr, arrive)

	// RNR retry: a reliable sender re-offers the message after the
	// receiver reported no posted buffer, waiting RNRTimer between
	// attempts (IB rnr_retry).
	for rnr := 0; q.typ == RC && rstatus == statusRNRRetryExceeded && rnr < rnrRetry; rnr++ {
		q.hca.noteRetransmit()
		a2, d2, s2 := q.transmit(q.hca, dst.hca, rtime+cfg.RNRTimer, q.hca.wireBytes(n))
		if !d2 {
			rstatus, rtime = s2, rtime+cfg.RNRTimer
			break
		}
		rstatus, rtime = dst.receive(wr, a2)
	}

	// Local completion: the origin buffer is reusable as soon as the HCA
	// has consumed it.
	localStatus := StatusSuccess
	localTime := depart
	if q.typ == RC && rstatus != StatusSuccess {
		// Reliable transport reflects the remote failure to the sender
		// (RNR retries exhausted / remote length error).
		localStatus = rstatus
		localTime = rtime
		if rstatus == statusRetryExceeded {
			q.Modify(stateErr)
		}
	}
	q.sendCQ.post(WC{ID: wr.ID, Op: OpSend, Status: localStatus, ByteLen: n, QPN: q.qpn, Time: localTime})
	return nil
}

// receive consumes a posted receive for an incoming SEND, landing its
// two gather segments contiguously.
func (q *QP) receive(wr *SendWR, arrive simnet.Time) (Status, simnet.Time) {
	cfg := q.hca.cfg
	if q.state != stateRTR && q.state != stateRTS {
		return statusRemoteError, arrive
	}
	rwr, ok := q.popRecv()
	if !ok {
		if q.typ == UD {
			return StatusSuccess, arrive // dropped on the floor
		}
		return statusRNRRetryExceeded, arrive
	}
	n := len(wr.Local) + len(wr.Local2)
	room := rwr.Len
	if rwr.Buf != nil {
		room = len(rwr.Buf)
	}
	if room < n {
		q.recvCQ.post(WC{ID: rwr.ID, Op: OpRecv, Status: statusRemoteError, QPN: q.qpn, Time: arrive})
		return statusRemoteError, arrive
	}
	buf := rwr.Buf
	if buf == nil {
		buf = q.recvCQ.Buf(n)
	}
	buf = buf[:n]
	copy(buf[copy(buf, wr.Local):], wr.Local2)
	placed := q.hca.recvEngine.Acquire(arrive, cfg.RecvProc) + cfg.RecvProc
	q.recvCQ.post(WC{
		ID: rwr.ID, Op: OpRecv, Status: StatusSuccess,
		ByteLen: n, Buf: buf, QPN: q.qpn, Time: placed,
	})
	return StatusSuccess, placed
}

// rdmaPeer validates the one-sided preconditions and returns the target.
func (q *QP) rdmaPeer(remote *QP) (*QP, error) {
	if q.typ != RC {
		return nil, errBadState // one-sided ops require a connected QP
	}
	if remote == nil {
		return nil, errNotConnected
	}
	return remote, nil
}

// postRDMARead pulls remote memory into wr.Local with no remote software
// involvement — the mechanism UCR uses to fetch large active-message
// payloads (paper §IV-B).
func (q *QP) postRDMARead(clk *simnet.VClock, wr *SendWR, remote *QP) error {
	cfg := q.hca.cfg
	dst, err := q.rdmaPeer(remote)
	if err != nil {
		return err
	}
	n := len(wr.Local)

	// Request packet to the target.
	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc
	reqArrive, delivered, st := q.transmit(q.hca, dst.hca, depart, cfg.HeaderBytes)
	if !delivered {
		if st == statusRetryExceeded {
			q.Modify(stateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: st, QPN: q.qpn, Time: depart})
		return nil
	}

	// Target HCA serves the read from registered memory.
	src, ok := dst.hca.lookupMR(wr.RKey)
	if !ok {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: statusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}
	data, rerr := src.rdmaRange(wr.RemoteAddr, n)
	if rerr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: statusRemoteError, QPN: q.qpn, Time: reqArrive})
		return nil
	}

	respStart := dst.hca.sendEngine.Acquire(reqArrive, cfg.RDMAProc)
	respDepart := respStart + cfg.RDMAProc
	respArrive, delivered, st := q.transmit(dst.hca, q.hca, respDepart, q.hca.wireBytes(n))
	if !delivered {
		if st == statusRetryExceeded {
			q.Modify(stateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: st, QPN: q.qpn, Time: respDepart})
		return nil
	}
	copy(wr.Local, data)
	done := q.hca.recvEngine.Acquire(respArrive, cfg.RecvProc) + cfg.RecvProc
	q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMARead, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: done})
	return nil
}

// postRDMAWrite pushes wr.Local (followed by the optional wr.Local2
// gather segment) into remote memory. The two segments travel as one
// wire transaction and land contiguously at RemoteAddr — a two-SGE WQE.
func (q *QP) postRDMAWrite(clk *simnet.VClock, wr *SendWR, remote *QP) error {
	cfg := q.hca.cfg
	dst, err := q.rdmaPeer(remote)
	if err != nil {
		return err
	}
	n := len(wr.Local) + len(wr.Local2)

	start := q.hca.sendEngine.Acquire(clk.Now(), cfg.SendProc)
	depart := start + cfg.SendProc
	arrive, delivered, st := q.transmit(q.hca, dst.hca, depart, q.hca.wireBytes(n))
	if !delivered {
		if st == statusRetryExceeded {
			q.Modify(stateErr)
		}
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: st, QPN: q.qpn, Time: depart})
		return nil
	}
	tgt, ok := dst.hca.lookupMR(wr.RKey)
	if !ok {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: statusRemoteError, QPN: q.qpn, Time: arrive})
		return nil
	}
	room, rerr := tgt.rdmaRange(wr.RemoteAddr, n)
	if rerr != nil {
		q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: statusRemoteError, QPN: q.qpn, Time: arrive})
		return nil
	}
	copy(room, wr.Local)
	copy(room[len(wr.Local):], wr.Local2)
	dst.hca.recvEngine.Acquire(arrive, cfg.RDMAProc)
	q.sendCQ.post(WC{ID: wr.ID, Op: OpRDMAWrite, Status: StatusSuccess, ByteLen: n, QPN: q.qpn, Time: depart})
	return nil
}

// SRQ is a shared receive queue: one pool of posted receives feeding
// many QPs, reducing per-connection buffer consumption (the scalability
// design reused from MVAPICH that the paper cites). The ring has a fixed
// capacity like a hardware SRQ: Post beyond it fails with errSRQFull,
// and an empty ring makes RC senders take the RNR retry path (receiver
// not ready) rather than dropping — the backpressure loop the shared-
// serving datapath leans on when a burst outruns the repost rate.
type SRQ struct {
	cap int
	q   recvQueue
}

// defaultSRQCap bounds an SRQ created without an explicit capacity.
const defaultSRQCap = 4096

// CreateSRQSized allocates a shared receive queue holding at most cap
// posted receives (cap <= 0 selects the default).
func (h *HCA) CreateSRQSized(cap int) *SRQ {
	if cap <= 0 {
		cap = defaultSRQCap
	}
	return &SRQ{cap: cap}
}

// Post adds a receive to the shared pool; errSRQFull when the ring is
// at capacity (the work request is not queued).
func (s *SRQ) Post(wr RecvWR) error {
	if s.q.n >= s.cap {
		return errSRQFull
	}
	s.q.push(wr)
	return nil
}

func (s *SRQ) pop() (RecvWR, bool) { return s.q.pop() }
