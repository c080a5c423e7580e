package ucr

import "repro/internal/simnet"

// This file is the batching face of the runtime, and all of it is on
// the polling side: batched CQ draining for a serving loop
// (TryProgressN) and for pipelined clients (WaitCounterBatch, and Sweep
// after a post). Sends are never held — a packet is posted when it is
// built. A batch of one charges exactly what the one-at-a-time harvest
// (progressDeadline) does.

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
// tables bit-identical. Each completion is probed for once, and a CQ
// the sweep ran dry (verbs.CQ.Drained) is not probed again. It reports
// how many completions it processed and whether any may be left queued:
// false only for a CQ known to be empty, so its owner stops without
// probing again.
func (c *Context) TryProgressN(clk *simnet.VClock, max int) (n int, more bool) {
	wc, ok := c.cq.TryPoll()
	if !ok {
		return 0, false
	}
	clk.AdvanceTo(wc.Time)
	if wc.Time <= c.drainEnd+pollSpin {
		clk.Advance(c.cq.CoalescedCost())
		c.coalesced = true
	} else {
		clk.Advance(c.cq.Cost())
	}
	c.dispatch(clk, &wc)
	c.coalesced = false
	for n = 1; n < max && !c.cq.Drained(); n++ {
		wc, ok := c.cq.TryPollSpin(clk, pollSpin)
		if !ok {
			break
		}
		c.coalesced = true
		c.dispatch(clk, &wc)
		c.coalesced = false
	}
	if n > 1 {
		c.batchedDrains++
	}
	c.drainEnd = clk.Now()
	return n, !c.cq.Drained()
}

// WaitCounterBatch is WaitCounter with batched CQ draining, for a
// pipelined waiter. What follows a full-cost harvest depends on the
// harvested completion's stamp. Had it landed by the time the waiter
// polled (stamp ≤ the waiter's clock), the waiter is behind its CQ: it
// sweeps up to batch-1 further visible completions at the coalesced
// cost, one wakeup for a burst of replies. Had the waiter to wait for
// it, the wire was the bottleneck and the caller has a request to post:
// it sweeps nothing, and the replies behind it are left to Sweep after
// that post. batch <= 1 is WaitCounter exactly.
func (c *Context) WaitCounterBatch(clk *simnet.VClock, ctr *Counter, target uint64, timeout simnet.Duration, batch int) error {
	deadline := simnet.Never
	if timeout > 0 {
		deadline = clk.Now() + timeout
	}
	for ctr.Value() < target {
		polled := clk.Now()
		wc, ok, timedOut := c.cq.WaitDeadline(clk, deadline)
		if timedOut {
			return ErrTimeout
		}
		if !ok {
			return ErrClosed
		}
		c.dispatch(clk, &wc)
		if wc.Time <= polled && c.Sweep(clk, batch-1) > 0 {
			c.batchedDrains++
		}
	}
	return nil
}

// Sweep harvests up to max completions already visible at clk's time,
// at the coalesced cost, and reports how many. It never spins: a
// client that sweeps has requests to issue, and idling for future
// replies would serialize the pipe. A completion stamped after clk is
// left for a full-cost harvest.
func (c *Context) Sweep(clk *simnet.VClock, max int) int {
	n := 0
	for ; n < max; n++ {
		wc, ok := c.cq.TryPollReady(clk)
		if !ok {
			break
		}
		c.coalesced = true
		c.dispatch(clk, &wc)
		c.coalesced = false
	}
	return n
}
