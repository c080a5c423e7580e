package ucr

import (
	"time"

	"repro/internal/simnet"
	"repro/internal/verbs"
)

// Context is a progress context: the unit of single-threaded progress in
// UCR. Each actor (benchmark client, Memcached worker thread) owns one
// Context; all endpoints created under it share one completion queue, so
// the owner drives every endpoint by calling Progress / WaitCounter.
// A Context and its endpoints must only be touched by their owner.
type Context struct {
	rt *Runtime
	cq *verbs.CQ

	eps      map[uint32]*Endpoint // local QPN → endpoint
	srq      *verbs.SRQ           // shared receive pool (Config.UseSRQ)
	srqBytes int64                // receive-buffer bytes posted (footprint stat)
	// posted files every work request this context has in flight — sends,
	// receives, rendezvous pulls, one-sided ops, write replies — under
	// the WR id its completion carries.
	posted slots[postedWR]
	// rndzOrigin is not a WR table: a rendezvous send waits for the
	// target's ack, which names it by the wire sequence number.
	rndzOrigin map[uint64]rndzOriginState
	nextSeq    uint64

	// coalesced marks the 2nd..Nth dispatches of one batched CQ drain:
	// AM dispatch then charges the coalesced handler cost (set/cleared by
	// TryProgressN and WaitCounterBatch around each coalesced dispatch).
	coalesced bool
	// drainEnd is the virtual time the last productive TryProgressN ran
	// dry: the owner busy-polls for pollSpin past it, so a completion
	// arriving inside that window is harvested at the coalesced cost
	// whenever the owner is next stepped. Initialized far in the past so
	// the very first harvest of a context always pays the full cost.
	drainEnd simnet.Time

	// stats
	amsIn, amsOut, acksIn, acksOut, rdmaReads uint64
	srqDemux                                  uint64
	batchedDrains                             uint64
	writeReplies                              uint64
}

// MutSRQMisroute, when set (mutation builds only — see the memcached
// package's mut_srq_misroute build tag), makes the shared-completion
// demux deliver every third SRQ-fed arrival to a different endpoint in
// the context: the wrong-connection bug class the memcheck srq mode
// exists to catch.
var MutSRQMisroute bool

// wrKind says what a posted work request is, and so what its completion
// does.
type wrKind uint8

const (
	wrSend       wrKind = iota // a packet: origin counter on success (eager fast path, §IV-C)
	wrRecv                     // a posted receive buffer: a packet arrived in buf
	wrPull                     // a rendezvous RDMA read: the receive in pull completes
	wrOneSided                 // put/get/atomic: origin counter on success
	wrWriteReply               // origin counter settles on success AND failure (writereply.go)
)

// postedWR is one in-flight work request.
type postedWR struct {
	kind        wrKind
	ep          *Endpoint
	buf         []byte       // send, write reply: pool buffer to release; recv: the posted buffer
	originCtr   *Counter     // bumped at local completion
	originCtrID CounterID    // issued id: guards the bump across struct reuse
	pull        *pendingRead // wrPull only
}

type pendingRead struct {
	hdr         []byte // copied out of the receive buffer
	dst         []byte
	msgID       uint8
	targetCtrID CounterID
	originCtrID CounterID
	complCtrID  CounterID
	seq         uint64
}

type rndzOriginState struct {
	mr          *verbs.MR // owned by the registration cache: release, never deregister
	originCtr   *Counter
	complCtr    *Counter
	originCtrID CounterID
	complCtrID  CounterID
}

// NewContext creates a progress context for one actor.
func (rt *Runtime) NewContext() *Context {
	return &Context{
		rt:         rt,
		cq:         rt.hca.CreateCQ(),
		drainEnd:   simnet.Time(-1) << 50,
		eps:        make(map[uint32]*Endpoint),
		rndzOrigin: make(map[uint64]rndzOriginState),
	}
}

// Runtime reports the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Stats reports message counts for this context.
func (c *Context) Stats() (amsIn, amsOut, acksIn, acksOut, rdmaReads uint64) {
	return c.amsIn, c.amsOut, c.acksIn, c.acksOut, c.rdmaReads
}

// SRQDemux reports how many arrivals this context demultiplexed off the
// shared receive queue (zero unless Config.UseSRQ). Tests use it as a
// vacuity guard: a "shared-SRQ" run that never demuxed proved nothing.
func (c *Context) SRQDemux() uint64 { return c.srqDemux }

// BatchedDrains reports how many TryProgressN calls harvested two or
// more completions in one sweep — i.e. how often the batched-drain path
// actually amortized its poll/handler costs. Tests use it as a vacuity
// guard: a "batch-scheduled" run that never coalesced proved nothing.
func (c *Context) BatchedDrains() uint64 { return c.batchedDrains }

// InCoalescedDrain reports whether the context is currently dispatching
// a 2nd..Nth completion of one batched CQ drain. Completion handlers use
// it to charge batch-amortized processing costs (e.g. the Memcached
// server's CoalescedOpCost) without threading a flag through every
// handler signature.
func (c *Context) InCoalescedDrain() bool { return c.coalesced }

// SetOwner makes actor a the context's owner: every completion makes a
// ready, and a's step drives the context with TryProgress/TryProgressN.
func (c *Context) SetOwner(a *simnet.Actor) { c.cq.SetOwner(a) }

// UseEvents switches this context's completion detection from polling to
// interrupt-driven events (ablation: §II-A1 notes polling is fastest).
func (c *Context) UseEvents(on bool) { c.cq.UseEvents = on }

// bufSize is the receive/send buffer size for an endpoint.
func (c *Context) bufSize(rel Reliability) int {
	n := packetHdrSize + c.rt.cfg.EagerThreshold
	if rel == Unreliable && n > c.rt.hca.Config().MTU {
		n = c.rt.hca.Config().MTU
	}
	return n
}

// newEndpoint builds the local half of an endpoint. With per-endpoint
// flow control each endpoint pre-posts its own credit window; in SRQ
// mode all RC endpoints share one receive pool whose size is fixed
// regardless of how many endpoints exist (§VII scalability).
func (c *Context) newEndpoint(rel Reliability) (*Endpoint, error) {
	typ := verbs.RC
	if rel == Unreliable {
		typ = verbs.UD
	}
	useSRQ := c.rt.cfg.UseSRQ && typ == verbs.RC
	var qp *verbs.QP
	if useSRQ {
		if c.srq == nil {
			// Ring capacity equals the pool size: the post/repost loop is
			// a tight credit cycle, so a repost can never find the ring
			// full unless a buffer was double-posted.
			c.srq = c.rt.hca.CreateSRQSized(c.rt.cfg.SRQBuffers)
			bufSize := c.bufSize(Reliable)
			for i := 0; i < c.rt.cfg.SRQBuffers; i++ {
				buf := make([]byte, bufSize)
				id := c.posted.put(postedWR{kind: wrRecv, buf: buf})
				if err := c.srq.Post(verbs.RecvWR{ID: id, Buf: buf}); err != nil {
					c.posted.take(id)
					return nil, err
				}
				c.srqBytes += int64(bufSize)
			}
		}
		qp = c.rt.hca.NewQPWithSRQ(typ, c.cq, c.cq, c.srq)
	} else {
		qp = c.rt.hca.NewQP(typ, c.cq, c.cq)
	}
	if err := qp.Modify(verbs.StateInit); err != nil {
		return nil, err
	}
	ep := &Endpoint{
		ctx:         c,
		qp:          qp,
		rel:         rel,
		sendCredits: c.rt.cfg.Credits,
		bufSize:     c.bufSize(rel),
		noCredits:   useSRQ,
	}
	if !useSRQ {
		for i := 0; i < c.rt.cfg.Credits; i++ {
			buf := make([]byte, ep.bufSize)
			id := c.posted.put(postedWR{kind: wrRecv, buf: buf})
			if err := qp.PostRecv(verbs.RecvWR{ID: id, Buf: buf}); err != nil {
				c.posted.take(id)
				return nil, err
			}
			c.srqBytes += int64(ep.bufSize)
		}
	}
	c.eps[qp.QPN()] = ep
	return ep, nil
}

// RecvBufferBytes reports the receive-buffer memory this context has
// posted — the footprint §VII's SRQ/UD direction keeps flat as client
// counts grow.
func (c *Context) RecvBufferBytes() int64 { return c.srqBytes }

// Dial establishes an endpoint with a remote service (paper §IV-A: the
// end-point model replacing MPI-style destination ranks). The handshake
// round trip is charged to clk; realCap bounds the wait in real time
// only when the acceptor is a goroutine (verbs.CM.Connect).
func (rt *Runtime) Dial(ctx *Context, remote *simnet.Node, service string, rel Reliability, clk *simnet.VClock, realCap time.Duration) (*Endpoint, error) {
	if rt.closed.Load() {
		return nil, ErrClosed
	}
	ep, err := ctx.newEndpoint(rel)
	if err != nil {
		return nil, err
	}
	peer, err := rt.cm.Connect(ep.qp, remote, service, clk, realCap)
	if err != nil {
		ep.teardown()
		return nil, err
	}
	ep.finishSetup(peer)
	return ep, nil
}

// Accept completes an inbound endpoint request within this context.
// Servers that dispatch accepts to worker threads (the paper's round-
// robin worker assignment, §V-A) obtain the request on the dispatcher
// via Listener.Next and complete it on the worker with this method.
func (c *Context) Accept(req *verbs.ConnRequest, clk *simnet.VClock) (*Endpoint, error) {
	rel := Reliable
	if req.RemoteQP().Type() == verbs.UD {
		rel = Unreliable
	}
	ep, err := c.newEndpoint(rel)
	if err != nil {
		return nil, err
	}
	if err := req.Accept(ep.qp, clk); err != nil {
		ep.teardown()
		return nil, err
	}
	ep.finishSetup(req.RemoteQP())
	return ep, nil
}

// ProgressDeadline blocks until one completion is processed — running
// handlers and bumping counters as the protocol dictates — or the
// virtual deadline passes, which a genuinely silent peer makes it do as
// soon as the simulation goes idle (verbs.CQ.WaitDeadline). ok=false
// without timedOut means the context was destroyed.
func (c *Context) ProgressDeadline(clk *simnet.VClock, deadline simnet.Time) (ok, timedOut bool) {
	wc, ok, timedOut := c.cq.WaitDeadline(clk, deadline)
	if !ok {
		return false, timedOut
	}
	c.dispatch(clk, wc)
	return true, false
}

// TryProgress processes one completion if immediately available,
// charging the harvest cost (poll or interrupt per the context's mode).
func (c *Context) TryProgress(clk *simnet.VClock) bool {
	wc, ok := c.cq.TryPollWith(clk)
	if !ok {
		return false
	}
	c.dispatch(clk, wc)
	return true
}

// WaitCounter drives progress until ctr reaches at least target, or the
// virtual timeout expires (§IV-A: synchronization with timeouts so a
// dead server is survivable). timeout <= 0 sets no deadline: the wait
// still fails on a dead peer, without moving clk.
func (c *Context) WaitCounter(clk *simnet.VClock, ctr *Counter, target uint64, timeout simnet.Duration) error {
	return c.WaitCounterBatch(clk, ctr, target, timeout, 1)
}

// dispatch routes one work completion by what was posted under its id;
// a stale or unknown id is dropped.
func (c *Context) dispatch(clk *simnet.VClock, wc verbs.WC) {
	wr, ok := c.posted.take(wc.ID)
	if !ok {
		return
	}
	switch wr.kind {
	case wrRecv:
		c.onPacket(clk, wc, wr.buf)
	case wrPull:
		c.onPullComplete(clk, wc, wr.ep, wr.pull)
	default:
		// Local completion of a send, one-sided op or write reply: the
		// pool buffer is free again and — the transfer being done, or for
		// a write reply either way, since its caller's pin lifecycle keys
		// off the counter — the origin counter bumps (§IV-C).
		if wr.buf != nil {
			wr.ep.releaseSendBuf(wr.buf)
		}
		if wc.Status != verbs.StatusSuccess {
			wr.ep.markFailed()
			if wr.kind != wrWriteReply {
				return
			}
		}
		wr.originCtr.bumpIf(wr.originCtrID)
	}
}

// demuxEndpoint resolves an arrived packet to its endpoint. With
// per-endpoint receive rings the mapping is trivial (each QP has its own
// ring); with a shared SRQ every RC endpoint's arrivals surface through
// one buffer pool onto one CQ and the completion envelope is the only
// routing key — this is the demultiplex step the shared-serving
// datapath depends on, counted so tests can prove the path actually ran.
func (c *Context) demuxEndpoint(wc verbs.WC) *Endpoint {
	ep := c.eps[wc.QPN]
	if ep == nil || !ep.noCredits {
		return ep
	}
	c.srqDemux++
	if MutSRQMisroute && c.srqDemux%3 == 0 {
		if wrong := c.neighborEndpoint(ep); wrong != nil {
			return wrong
		}
	}
	return ep
}

// neighborEndpoint deterministically picks a different endpoint from the
// same context (the next-higher QPN, wrapping to the lowest), or nil if
// ep is the only one. Mutation-build helper: map iteration order would
// make the misroute non-replayable.
func (c *Context) neighborEndpoint(ep *Endpoint) *Endpoint {
	self := ep.qp.QPN()
	var next, lowest *Endpoint
	for qpn, cand := range c.eps {
		if qpn == self {
			continue
		}
		if lowest == nil || qpn < lowest.qp.QPN() {
			lowest = cand
		}
		if qpn > self && (next == nil || qpn < next.qp.QPN()) {
			next = cand
		}
	}
	if next != nil {
		return next
	}
	return lowest
}

// onPacket handles a UCR packet arrived in the posted buffer buf.
func (c *Context) onPacket(clk *simnet.VClock, wc verbs.WC, buf []byte) {
	ep := c.demuxEndpoint(wc)
	if ep == nil {
		return
	}
	if wc.Status != verbs.StatusSuccess {
		if wc.Status != verbs.StatusFlushed {
			ep.markFailed()
		}
		return
	}
	pkt, err := decodePacket(buf, wc.ByteLen)
	if err != nil {
		ep.markFailed()
		return
	}
	ep.sendCredits += int(pkt.credits)

	switch pkt.typ {
	case ptEager:
		c.amsIn++
		c.handleEager(clk, ep, pkt)
	case ptRndzHdr:
		c.amsIn++
		c.handleRndzHdr(clk, ep, pkt)
	case ptAck:
		c.acksIn++
		c.handleAck(pkt)
	}
	// The packet content has been consumed (copied or acted upon):
	// recycle the buffer into the credit window.
	ep.repostRecv(buf)
}

// handlerCost is the AM-dispatch charge: the full HandlerOverhead for a
// message harvested on its own, a quarter of it for messages a batched
// CQ drain processes while hot — the 2nd..Nth of one sweep, and any
// arriving within the drain's spin window: the dispatch tables and
// handler code are hot in cache when messages are processed back to
// back, mirroring verbs' CQ.CoalescedCost. A lone message always pays
// the full cost, so depth-1 timing is unchanged.
func (c *Context) handlerCost() simnet.Duration {
	if c.coalesced {
		return c.rt.cfg.HandlerOverhead / 4
	}
	return c.rt.cfg.HandlerOverhead
}

// handleEager runs the short-message path of Fig 2b: header handler,
// memcpy into the chosen buffer, completion handler, target counter.
func (c *Context) handleEager(clk *simnet.VClock, ep *Endpoint, pkt packet) {
	h := c.rt.handler(pkt.msgID)
	if h == nil || h.Header == nil {
		return // no consumer: drop, as an unhandled AM would be
	}
	clk.Advance(c.handlerCost())
	dst := h.Header(clk, ep, pkt.hdr, pkt.dataLen, pkt.targetCtr)
	var data []byte
	if pkt.dataLen > 0 {
		if len(dst) < pkt.dataLen {
			ep.markFailed()
			return
		}
		// The landing buffer may be remotely-readable registered memory
		// (the Memcached one-sided index points into slab pages); honor
		// the adapter's memory guard so the unpack never tears under a
		// concurrent remote read.
		if g := c.rt.hca.MemGuard(); g != nil {
			g.Lock()
			copy(dst, pkt.data)
			g.Unlock()
		} else {
			copy(dst, pkt.data)
		}
		clk.Advance(simnet.BytesDuration(pkt.dataLen, c.rt.cfg.PackBytesPerSec))
		data = dst[:pkt.dataLen]
	}
	if h.Completion != nil {
		h.Completion(clk, ep, pkt.hdr, data, pkt.targetCtr)
	}
	c.rt.lookupCounter(pkt.targetCtr).bump()
	if pkt.complCtr != 0 {
		// §IV-C: the optional internal message telling the origin that
		// the completion handler has run.
		ep.sendAck(clk, 0, pkt.complCtr, 0)
	}
}

// handleRndzHdr runs the large-message path of Fig 2a: header handler
// chooses the buffer, then the target pulls the data with RDMA Read.
func (c *Context) handleRndzHdr(clk *simnet.VClock, ep *Endpoint, pkt packet) {
	h := c.rt.handler(pkt.msgID)
	if h == nil || h.Header == nil {
		return
	}
	clk.Advance(c.handlerCost())
	dst := h.Header(clk, ep, pkt.hdr, pkt.dataLen, pkt.targetCtr)
	if len(dst) < pkt.dataLen {
		ep.markFailed()
		return
	}
	id := c.posted.put(postedWR{kind: wrPull, ep: ep, pull: &pendingRead{
		hdr:         append([]byte(nil), pkt.hdr...),
		dst:         dst[:pkt.dataLen],
		msgID:       pkt.msgID,
		targetCtrID: pkt.targetCtr,
		originCtrID: pkt.originCtr,
		complCtrID:  pkt.complCtr,
		seq:         pkt.seq,
	}})
	c.rdmaReads++
	err := ep.qp.PostSend(clk, verbs.SendWR{
		ID:         id,
		Op:         verbs.OpRDMARead,
		Local:      dst[:pkt.dataLen],
		RemoteAddr: pkt.rndzAddr,
		RKey:       pkt.rkey,
	})
	if err != nil {
		c.posted.take(id)
		ep.markFailed()
	}
}

// onPullComplete finishes a rendezvous receive: completion handler,
// target counter, and the internal ack releasing the origin buffer.
func (c *Context) onPullComplete(clk *simnet.VClock, wc verbs.WC, ep *Endpoint, rd *pendingRead) {
	if wc.Status != verbs.StatusSuccess {
		ep.markFailed()
		return
	}
	h := c.rt.handler(rd.msgID)
	if h != nil && h.Completion != nil {
		h.Completion(clk, ep, rd.hdr, rd.dst, rd.targetCtrID)
	}
	c.rt.lookupCounter(rd.targetCtrID).bump()
	// One internal message carries both the origin-counter update (the
	// RDMA of the data is complete; §IV-C Fig 2a) and, if requested, the
	// completion-counter update — they coincide here because the
	// completion handler runs as soon as the read lands.
	if rd.originCtrID != 0 || rd.complCtrID != 0 || rd.seq != 0 {
		ep.sendAck(clk, rd.originCtrID, rd.complCtrID, rd.seq)
	}
}

// handleAck applies counter updates from an internal message.
func (c *Context) handleAck(pkt packet) {
	if pkt.seq != 0 {
		if st, ok := c.rndzOrigin[pkt.seq]; ok {
			delete(c.rndzOrigin, pkt.seq)
			c.rt.releaseCached(st.mr)
			st.originCtr.bumpIf(st.originCtrID)
			st.complCtr.bumpIf(st.complCtrID)
			return
		}
	}
	c.rt.lookupCounter(pkt.originCtr).bump()
	c.rt.lookupCounter(pkt.complCtr).bump()
}

// Destroy tears down every endpoint and the completion queue.
func (c *Context) Destroy() {
	for _, ep := range c.eps {
		ep.teardown()
	}
	c.eps = map[uint32]*Endpoint{}
	c.cq.Destroy()
}
