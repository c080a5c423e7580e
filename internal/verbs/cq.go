package verbs

import "repro/internal/simnet"

// CQ is a completion queue. The owner detects completions either by
// polling (the paper's low-latency choice) or, if armed with UseEvents,
// by interrupt-style events that charge a higher per-completion cost.
type CQ struct {
	hca *HCA
	box *simnet.Mailbox[WC]

	// UseEvents switches the completion cost model from PollOverhead
	// to InterruptOverhead (ablation: polling vs events, §II-A1).
	UseEvents bool
}

// CreateCQ allocates a completion queue on the adapter. Waiting on it
// steps the actors of the adapter's fabric.
func (h *HCA) CreateCQ() *CQ {
	return &CQ{hca: h, box: simnet.NewMailboxOn[WC](h.fabric.Executor())}
}

// SetOwner makes actor a the queue's only poller: every completion
// makes a ready, ordered by the completion's time.
func (c *CQ) SetOwner(a *simnet.Actor) { c.box.SetOwner(a, nil, wcTime) }

func wcTime(wc WC) simnet.Time { return wc.Time }

// post enqueues a completion (transport-internal).
func (c *CQ) post(wc WC) { c.box.Put(wc) }

// Cost is the full CPU time to harvest one completion (poll or
// interrupt, per the CQ's mode); callers that drive TryPoll charge it
// themselves.
func (c *CQ) Cost() simnet.Duration {
	if c.UseEvents {
		return c.hca.cfg.InterruptOverhead
	}
	return c.hca.cfg.PollOverhead
}

// CoalescedCost is the reduced harvest cost of the 2nd..Nth completions
// of a batched drain (and of a spin-covered harvest): half of
// PollOverhead — the poll loop is already hot, only the CQE read is
// paid. It applies in both polling and event mode: after the wakeup,
// draining extra CQEs is a poll either way.
func (c *CQ) CoalescedCost() simnet.Duration { return c.hca.cfg.PollOverhead / 2 }

// TryPoll returns a completion if one is immediately available. The
// caller is responsible for advancing its clock to wc.Time plus the
// adapter's poll overhead (Wait and TryPollWith do this automatically).
func (c *CQ) TryPoll() (WC, bool) {
	wc, ok, _ := c.box.TryRecv()
	return wc, ok
}

// TryPollWith is TryPoll plus clock synchronization: on success clk
// advances to the completion time and is charged the harvest cost
// (poll or interrupt, per the CQ's mode).
func (c *CQ) TryPollWith(clk *simnet.VClock) (WC, bool) {
	wc, ok, _ := c.box.TryRecv()
	if !ok {
		return wc, false
	}
	clk.AdvanceTo(wc.Time)
	clk.Advance(c.Cost())
	return wc, true
}

// TryPollReady harvests a completion only if one is already visible at
// clk's current time (wc.Time has passed), charging the coalesced
// batched-drain cost instead of the full poll/interrupt cost. It is the
// 2nd..Nth step of a batched CQ drain: the caller paid the full harvest
// cost for the first completion and sweeps the rest of the backlog
// cheaply. A completion that lands in the future is left in place for a
// later full-cost harvest, so time never runs backwards and a lone
// completion costs exactly what it always did.
func (c *CQ) TryPollReady(clk *simnet.VClock) (WC, bool) { return c.TryPollSpin(clk, 0) }

// TryPollSpin is TryPollReady for a drain that busy-polls briefly
// instead of parking: it additionally harvests a completion landing
// within `spin` of clk's current time, advancing the clock to the
// completion (the time spent spinning) and still charging only the
// coalesced cost — a poller that stays in its loop pays no wakeup. A
// completion further out is left in place for a full-cost harvest, so
// spin 0 is TryPollReady exactly.
func (c *CQ) TryPollSpin(clk *simnet.VClock, spin simnet.Duration) (WC, bool) {
	wc, ok, _ := c.box.TryRecv()
	if !ok {
		return wc, false
	}
	if wc.Time > clk.Now()+spin {
		c.box.PutFront(wc)
		return WC{}, false
	}
	clk.AdvanceTo(wc.Time)
	clk.Advance(c.CoalescedCost())
	return wc, true
}

// Wait blocks until a completion is available, then synchronizes clk
// with the completion time and charges the harvest cost. It waits for as
// long as it takes — the poster may be a goroutine that has not posted
// yet. ok=false means the CQ was destroyed.
func (c *CQ) Wait(clk *simnet.VClock) (WC, bool) {
	wc, ok := c.box.Recv()
	if ok {
		clk.AdvanceTo(wc.Time)
		clk.Advance(c.Cost())
	}
	return wc, ok
}

// WaitDeadline is Wait with a virtual deadline, the paper's timeout-
// based fault detection (§IV-A). It gives up, with ok=false and
// timedOut=true, when the next completion lands after the deadline or
// the simulation has gone idle with none pending (a dead peer: nothing
// will ever arrive). The waiter then "spent" the time up to the
// deadline; with deadline simnet.Never it learns of the silence at once
// and clk stays where it is.
func (c *CQ) WaitDeadline(clk *simnet.VClock, deadline simnet.Time) (wc WC, ok, timedOut bool) {
	wc, ok, idle := c.box.RecvIdle()
	if ok && wc.Time <= deadline {
		clk.AdvanceTo(wc.Time)
		clk.Advance(c.Cost())
		return wc, true, false
	}
	if ok {
		// Completion exists but lands after the virtual deadline: the
		// waiter gave up first. Requeue for a later harvest.
		c.box.PutFront(wc)
	} else if !idle {
		return WC{}, false, false
	}
	if deadline != simnet.Never {
		clk.AdvanceTo(deadline)
	}
	return WC{}, false, true
}

// Len reports the number of pending completions.
func (c *CQ) Len() int { return c.box.Len() }

// Destroy closes the queue, waking any waiter.
func (c *CQ) Destroy() { c.box.Close() }
