package ucr

import (
	"repro/internal/simnet"
	"repro/internal/verbs"
)

// Endpoint is a bidirectional UCR communication endpoint (§IV-A). It is
// owned by the Context that created it and must only be used by that
// context's owner.
type Endpoint struct {
	ctx *Context
	qp  *verbs.QP
	rel Reliability

	ah *verbs.AddressHandle // UD addressing

	bufSize       int
	sendCredits   int
	returnCredits int
	noCredits     bool // SRQ mode: no per-endpoint flow-control window
	freeSendBufs  [][]byte
	failed        bool

	// UserData lets upper layers (the Memcached server) attach
	// per-endpoint state without a side table.
	UserData any
}

// finishSetup records peer addressing after the CM exchange.
func (ep *Endpoint) finishSetup(peer *verbs.QP) {
	if ep.rel == Unreliable {
		ep.ah = &verbs.AddressHandle{Target: peer.HCA(), QPN: peer.QPN()}
	}
}

// Reliability reports the endpoint class.
func (ep *Endpoint) Reliability() Reliability { return ep.rel }

// Context reports the owning progress context.
func (ep *Endpoint) Context() *Context { return ep.ctx }

// Failed reports whether the endpoint has observed a transport failure.
// A failed endpoint rejects sends but leaves every other endpoint in the
// runtime untouched (§IV-A fault isolation).
func (ep *Endpoint) Failed() bool { return ep.failed }

func (ep *Endpoint) markFailed() { ep.failed = true }

// MarkFailed lets an upper layer that has independently concluded the
// peer is dead (e.g. an AM-level retry loop exhausting its budget)
// isolate this endpoint: sends are rejected from now on, while the
// runtime and every other endpoint keep working (§IV-A: "a client may
// decide that a server has gone down").
func (ep *Endpoint) MarkFailed() { ep.markFailed() }

// Credits reports the current send window.
func (ep *Endpoint) Credits() int { return ep.sendCredits }

// MaxEager reports the largest header+data that travels in one
// transaction on this endpoint.
func (ep *Endpoint) MaxEager() int { return ep.bufSize - packetHdrSize }

// acquireSendBuf takes a pooled registered send buffer.
func (ep *Endpoint) acquireSendBuf() []byte {
	if n := len(ep.freeSendBufs); n > 0 {
		buf := ep.freeSendBufs[n-1]
		ep.freeSendBufs = ep.freeSendBufs[:n-1]
		return buf
	}
	return make([]byte, ep.bufSize)
}

func (ep *Endpoint) releaseSendBuf(buf []byte) {
	ep.freeSendBufs = append(ep.freeSendBufs, buf[:cap(buf)])
}

// repostRecv recycles a consumed receive buffer into the credit window.
func (ep *Endpoint) repostRecv(buf []byte) {
	id := ep.ctx.posted.put(postedWR{kind: wrRecv, buf: buf})
	if err := ep.qp.PostRecv(verbs.RecvWR{ID: id, Buf: buf}); err != nil {
		ep.ctx.posted.take(id)
		return
	}
	ep.returnCredits++
}

// takeReturnCredits drains the credits to piggyback on an outgoing
// packet (flow control, one of the "performance critical" mechanisms
// UCR shares with MPI runtimes per §I-B).
func (ep *Endpoint) takeReturnCredits() uint16 {
	n := ep.returnCredits
	if n > 0xffff {
		n = 0xffff
	}
	ep.returnCredits -= n
	return uint16(n)
}

// waitCredit drives progress until the send window opens.
func (ep *Endpoint) waitCredit(clk *simnet.VClock) error {
	if ep.noCredits {
		return nil
	}
	deadline := clk.Now() + simnet.Second
	for ep.sendCredits <= 0 {
		if ep.failed {
			return ErrEndpointDown
		}
		ok, timedOut := ep.ctx.ProgressDeadline(clk, deadline)
		if timedOut {
			return ErrTimeout
		}
		if !ok {
			return ErrClosed
		}
	}
	return nil
}

// sendPacket encodes and posts one packet, tracking its completion.
func (ep *Endpoint) sendPacket(clk *simnet.VClock, pkt *packet, originCtr *Counter, packCost int) error {
	if ep.failed {
		return ErrEndpointDown
	}
	if err := ep.waitCredit(clk); err != nil {
		return err
	}
	pkt.credits = ep.takeReturnCredits()
	buf := ep.acquireSendBuf()
	if packCost > 0 {
		clk.Advance(simnet.BytesDuration(packCost, ep.ctx.rt.cfg.PackBytesPerSec))
	}
	n := pkt.encode(buf)
	id := ep.ctx.posted.put(postedWR{kind: wrSend, ep: ep, buf: buf, originCtr: originCtr, originCtrID: originCtr.ID()})
	wr := verbs.SendWR{ID: id, Op: verbs.OpSend, Local: buf[:n], Dest: ep.ah}
	if err := ep.qp.PostSend(clk, wr); err != nil {
		ep.ctx.posted.take(id)
		ep.releaseSendBuf(buf)
		ep.markFailed()
		return ErrEndpointDown
	}
	if !ep.noCredits {
		ep.sendCredits--
	}
	return nil
}

// sendAck emits an internal counter/credit message (§IV-C).
func (ep *Endpoint) sendAck(clk *simnet.VClock, originCtr, complCtr CounterID, seq uint64) {
	pkt := &packet{typ: ptAck, originCtr: originCtr, complCtr: complCtr, seq: seq}
	if err := ep.sendPacket(clk, pkt, nil, 0); err == nil {
		ep.ctx.acksOut++
	}
}

// Send issues an active message: hdr and data go to the peer, where the
// header handler registered for msgID picks the destination buffer.
// This is the Go form of the paper's ucr_send_message (§IV-B):
//
//	originCtr   bumps here when hdr/data are reusable (nil: never).
//	targetCtrID names a counter at the *target* to bump when the data
//	            has landed and the completion handler ran (0: none).
//	complCtr    bumps here when the target's completion handler has
//	            finished; non-nil requests the extra internal message.
//
// Messages with hdr+data within the eager threshold travel packed in one
// transaction; larger data is exposed via a registered region and pulled
// by the target with RDMA Read.
func (ep *Endpoint) Send(clk *simnet.VClock, msgID uint8, hdr, data []byte, originCtr *Counter, targetCtrID CounterID, complCtr *Counter) error {
	if ep.failed {
		return ErrEndpointDown
	}
	total := len(hdr) + len(data)
	if total <= ep.MaxEager() {
		pkt := &packet{
			typ:       ptEager,
			msgID:     msgID,
			hdr:       hdr,
			dataLen:   len(data),
			data:      data,
			targetCtr: targetCtrID,
			complCtr:  complCtr.ID(),
		}
		if err := ep.sendPacket(clk, pkt, originCtr, total); err != nil {
			return err
		}
		ep.ctx.amsOut++
		return nil
	}
	if ep.rel == Unreliable {
		// Rendezvous needs reliable delivery of the header and ack.
		return ErrTooLarge
	}
	if len(hdr) > ep.MaxEager() {
		return ErrTooLarge
	}
	// Rendezvous: expose data for the target's RDMA Read (Fig 2a). The
	// registration cache makes repeat sends of the same buffer free.
	mr, err := ep.ctx.rt.registerCached(data, clk)
	if err != nil {
		return err
	}
	ep.ctx.nextSeq++
	seq := ep.ctx.nextSeq
	ep.ctx.rndzOrigin[seq] = rndzOriginState{
		mr:        mr,
		originCtr: originCtr, complCtr: complCtr,
		originCtrID: originCtr.ID(), complCtrID: complCtr.ID(),
	}
	pkt := &packet{
		typ:       ptRndzHdr,
		msgID:     msgID,
		hdr:       hdr,
		dataLen:   len(data),
		targetCtr: targetCtrID,
		originCtr: originCtr.ID(),
		complCtr:  complCtr.ID(),
		rndzAddr:  mr.VA(),
		rkey:      mr.RKey(),
		seq:       seq,
	}
	if err := ep.sendPacket(clk, pkt, nil, len(hdr)); err != nil {
		delete(ep.ctx.rndzOrigin, seq)
		ep.ctx.rt.releaseCached(mr)
		return err
	}
	ep.ctx.amsOut++
	return nil
}

// teardown destroys the endpoint's verbs resources.
func (ep *Endpoint) teardown() {
	ep.failed = true
	delete(ep.ctx.eps, ep.qp.QPN())
	ep.qp.Destroy()
}

// Close releases the endpoint. Other endpoints in the same context and
// runtime are unaffected.
func (ep *Endpoint) Close() { ep.teardown() }
