package ucr

import (
	"repro/internal/simnet"
	"repro/internal/verbs"
)

// This file is the batching face of the runtime: doorbell-coalesced
// posting for pipelined senders and batched CQ draining for pipelined
// waiters. Both leave the one-at-a-time paths (sendPacket via PostSend,
// WaitCounter via ProgressDeadline) charging exactly what they always
// did — a batch of one is the old code.

// postBatch accumulates the work requests of packets sent between
// BeginPostBatch and FlushPosts so one doorbell ring covers them all.
// One batch value lives embedded in the Context and is reused across
// open/flush cycles, so the steady-state serving loop opens a batch per
// drain without allocating.
type postBatch struct {
	qp   *verbs.QP
	wrs  []verbs.SendWR
	undo []postUndo // per-WR cleanup, run if the burst fails to post
}

// postUndo is the cleanup record for one queued send: drop its pending
// completion, return the pool buffer, and fail the endpoint. A plain
// struct instead of a closure keeps the hot send path alloc-free.
type postUndo struct {
	ep *Endpoint
	id uint64
}

func (u postUndo) run() {
	if wr, ok := u.ep.ctx.posted.take(u.id); ok {
		u.ep.releaseSendBuf(wr.buf)
		if wr.kind == wrWriteReply {
			// A write reply that never reached the wire still settles its
			// counter: the caller's pin lifecycle keys off it.
			wr.originCtr.bumpIf(wr.originCtrID)
		}
	}
	u.ep.markFailed()
}

// BeginPostBatch opens a doorbell batch on the context: packets sent
// until FlushPosts are encoded and charged as usual, but their work
// requests are held back and posted as one PostSendN burst. Only sends
// on one QP coalesce — a packet for a different endpoint (e.g. an ack
// emitted while progressing) posts immediately, keeping the batch a
// pure same-endpoint doorbell optimization.
func (c *Context) BeginPostBatch() {
	if c.batch == nil {
		b := &c.batchStore
		b.qp = nil
		b.wrs = b.wrs[:0]
		b.undo = b.undo[:0]
		c.batch = b
	}
}

// queuePost absorbs a WR into the open batch. false means no batch is
// open (or the WR is for another QP) and the caller must post directly.
func (c *Context) queuePost(qp *verbs.QP, wr verbs.SendWR, undo postUndo) bool {
	b := c.batch
	if b == nil {
		return false
	}
	if b.qp == nil {
		b.qp = qp
	}
	if b.qp != qp {
		return false
	}
	b.wrs = append(b.wrs, wr)
	b.undo = append(b.undo, undo)
	return true
}

// FlushPosts closes the batch and rings the doorbell once for every
// held-back WR. On error the per-WR cleanups run (the endpoint is
// failing; the packets never reached the wire). PostSendN dispatches
// synchronously, so the batch's backing slices are free for reuse the
// moment it returns.
func (c *Context) FlushPosts(clk *simnet.VClock) error {
	b := c.batch
	c.batch = nil
	if b == nil || len(b.wrs) == 0 {
		return nil
	}
	if err := b.qp.PostSendN(clk, b.wrs); err != nil {
		for _, undo := range b.undo {
			undo.run()
		}
		return ErrEndpointDown
	}
	return nil
}

// TryProgressN processes up to max completions in one batched drain.
// The drain models a poller that, after doing work, busy-polls for the
// runtime's pollSpin before parking: a completion arriving while the
// poller is still in its loop — already visible, or within pollSpin of
// the previous drain running dry — is harvested at the coalesced cost;
// one arriving later finds the poller parked and pays the full
// poll/interrupt wakeup. The spin decision is made in virtual time
// (against the recorded end of the previous productive drain), so it is
// independent of when the completion was physically delivered. A lone
// completion in depth-1 traffic arrives a full round trip after the
// previous drain and always pays the full cost, keeping the figure
// tables bit-identical. Returns how many completions were processed.
func (c *Context) TryProgressN(clk *simnet.VClock, max int) int {
	wc, ok := c.cq.TryPoll()
	if !ok {
		return 0
	}
	clk.AdvanceTo(wc.Time)
	if wc.Time <= c.drainEnd+pollSpin {
		clk.Advance(c.cq.CoalescedCost())
		c.coalesced = true
	} else {
		clk.Advance(c.cq.Cost())
	}
	c.dispatch(clk, wc)
	c.coalesced = false
	n := 1
	for n < max {
		wc, ok := c.cq.TryPollReady(clk)
		if !ok {
			// Out of visible work and about to busy-poll: ring the
			// doorbell on any replies queued so far first — the spinner
			// has nothing else to do, and holding them through the spin
			// would delay the peer for no gain.
			if b := c.batch; b != nil && len(b.wrs) > 0 {
				_ = c.FlushPosts(clk) // failures ran their undos
				c.BeginPostBatch()
			}
			wc, ok = c.cq.TryPollSpin(clk, pollSpin)
		}
		if !ok {
			break
		}
		c.coalesced = true
		c.dispatch(clk, wc)
		c.coalesced = false
		n++
	}
	if n > 1 {
		c.batchedDrains++
	}
	c.drainEnd = clk.Now()
	return n
}

// WaitCounterBatch is WaitCounter with batched CQ draining: after every
// full-cost harvest it sweeps up to batch-1 further already-visible
// completions at the coalesced cost, so a pipelined waiter pays one
// wakeup for a burst of replies instead of one per reply. batch <= 1 is
// WaitCounter exactly.
func (c *Context) WaitCounterBatch(clk *simnet.VClock, ctr *Counter, target uint64, timeout simnet.Duration, batch int) error {
	deadline := simnet.Never
	if timeout > 0 {
		deadline = clk.Now() + timeout
	}
	for ctr.Value() < target {
		ok, timedOut := c.ProgressDeadline(clk, deadline)
		if timedOut {
			return ErrTimeout
		}
		if !ok {
			return ErrClosed
		}
		// Extras never spin: a client waiter that has met its target has
		// new requests to issue, and idling here for future replies would
		// serialize the pipe. Only already-visible replies sweep cheaply.
		extras := 0
		for extra := 1; extra < batch; extra++ {
			wc, ok := c.cq.TryPollReady(clk)
			if !ok {
				break
			}
			c.coalesced = true
			c.dispatch(clk, wc)
			c.coalesced = false
			extras++
		}
		if extras > 0 {
			c.batchedDrains++
		}
	}
	return nil
}
