package ucr

import "repro/internal/simnet"

// This file is the batching face of the runtime, and all of it is on
// the polling side: batched CQ draining for a serving loop
// (TryProgressN) and for pipelined waiters (WaitCounterBatch). Sends are
// never held — a packet is posted when it is built. A batch of one
// charges exactly what the one-at-a-time wait (WaitCounter via
// ProgressDeadline) does.

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
