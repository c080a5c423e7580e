package verbs

import (
	"math/bits"

	"repro/internal/simnet"
)

// CQ is a completion queue. The owner detects completions either by
// polling (the paper's low-latency choice) or, if armed with UseEvents,
// by interrupt-style events that charge a higher per-completion cost.
//
// A CQ also owns the host memory its messages land in: a pool of
// recycled buffers in power-of-two size classes. The adapter takes one
// per message arriving on a receive reservation and the consumer
// returns it (Recycle) when done, so the pool grows to the messages
// ever in flight at once, not to what the posted receives reserve.
// Senders may stage their own messages through it too (Buf).
type CQ struct {
	hca *HCA
	box *simnet.Mailbox[WC]

	free [][][]byte // free buffers by size class, grown on demand

	// drained: the last spin-poll left the queue empty and nothing has
	// been queued since (see Drained).
	drained bool

	// UseEvents switches the completion cost model from PollOverhead
	// to InterruptOverhead (ablation: polling vs events, §II-A1).
	UseEvents bool
}

// minBufClass is the smallest pool size class: 64-byte buffers.
const minBufClass = 6

// bufClass is the size class holding n bytes.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// Buf takes an n-byte buffer from the queue's pool.
func (c *CQ) Buf(n int) []byte {
	k := bufClass(n)
	if k < len(c.free) {
		if m := len(c.free[k]); m > 0 {
			b := c.free[k][m-1]
			c.free[k] = c.free[k][:m-1]
			return b[:n]
		}
	}
	return make([]byte, n, 1<<k)
}

// Recycle returns a buffer from Buf, or a reservation's WC.Buf, to the
// pool; the caller must not touch it afterwards. Nil is ignored.
func (c *CQ) Recycle(b []byte) {
	k := bufClass(cap(b))
	if cap(b) != 1<<k {
		return
	}
	for len(c.free) <= k {
		c.free = append(c.free, nil)
	}
	c.free[k] = append(c.free[k], b)
}

// CreateCQ allocates a completion queue on the adapter. Waiting on it
// steps the actors of the adapter's fabric.
func (h *HCA) CreateCQ() *CQ {
	return &CQ{hca: h, box: simnet.NewMailboxOn[WC](h.fabric.Executor())}
}

// SetOwner makes actor a the queue's only poller: every completion
// makes a ready, ordered by the completion's time.
func (c *CQ) SetOwner(a *simnet.Actor) { c.box.SetOwner(a, nil, wcTime) }

func wcTime(wc *WC) simnet.Time { return wc.Time }

// post enqueues a completion (transport-internal).
func (c *CQ) post(wc WC) {
	c.drained = false
	c.box.Put(wc)
}

// Drained reports that no completion is queued: the last PollSpin left
// the queue empty and nothing has been posted since. It costs no probe,
// so a drain asks it before polling again; a false answer only means a
// probe is needed to know.
func (c *CQ) Drained() bool { return c.drained }

// Cost is the full CPU time to harvest one completion (poll or
// interrupt, per the CQ's mode); callers that drive Poll charge it
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

// The polls and waits below harvest into a WC the caller owns: the
// completion moves once, from the queue into the caller's frame. The
// forms returning a WC are one-line wrappers over them.

// Poll harvests a completion into wc if one is immediately available.
// The caller is responsible for advancing its clock to wc.Time plus the
// adapter's poll overhead (PollWith and WaitDeadline do this).
func (c *CQ) Poll(wc *WC) bool {
	ok, _ := c.box.TryRecvInto(wc)
	return ok
}

// TryPoll is Poll returning the completion.
func (c *CQ) TryPoll() (wc WC, ok bool) { ok = c.Poll(&wc); return }

// PollWith is Poll plus clock synchronization: on success clk advances
// to the completion time and is charged the harvest cost (poll or
// interrupt, per the CQ's mode).
func (c *CQ) PollWith(clk *simnet.VClock, wc *WC) bool {
	if !c.Poll(wc) {
		return false
	}
	clk.AdvanceTo(wc.Time)
	clk.Advance(c.Cost())
	return true
}

// TryPollWith is PollWith returning the completion.
func (c *CQ) TryPollWith(clk *simnet.VClock) (wc WC, ok bool) { ok = c.PollWith(clk, &wc); return }

// PollSpin is the 2nd..Nth step of a batched CQ drain, for a poller
// that busy-polls briefly instead of parking: it harvests a completion
// already visible at clk's current time or landing within spin of it,
// advancing the clock to the completion (the time spent spinning) and
// charging the coalesced batched-drain cost instead of the full
// poll/interrupt cost — the caller paid the full cost for the first
// completion, and a poller that stays in its loop pays no wakeup. A
// completion further out is left in place for a later full-cost
// harvest, so time never runs backwards and a lone completion costs
// exactly what it always did. Whether the poll left the queue empty is
// recorded for Drained.
func (c *CQ) PollSpin(clk *simnet.VClock, spin simnet.Duration, wc *WC) bool {
	ok, empty := c.box.TryRecvBy(clk.Now()+spin, wcTime, wc)
	c.drained = empty
	if !ok {
		return false
	}
	clk.AdvanceTo(wc.Time)
	clk.Advance(c.CoalescedCost())
	return true
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

// WaitDeadline is Wait into wc with a virtual deadline, the paper's
// timeout-based fault detection (§IV-A). It gives up, with ok=false and
// timedOut=true, when the next completion lands after the deadline or
// the simulation has gone idle with none pending (a dead peer: nothing
// will ever arrive). The waiter then "spent" the time up to the
// deadline; with deadline simnet.Never it learns of the silence at once
// and clk stays where it is. wc is only meaningful when ok.
func (c *CQ) WaitDeadline(clk *simnet.VClock, deadline simnet.Time, wc *WC) (ok, timedOut bool) {
	ok, idle := c.box.RecvIdleInto(wc)
	if ok && wc.Time <= deadline {
		clk.AdvanceTo(wc.Time)
		clk.Advance(c.Cost())
		return true, false
	}
	if ok {
		// Completion exists but lands after the virtual deadline: the
		// waiter gave up first. Requeue for a later harvest.
		c.drained = false
		c.box.PutFront(*wc)
	} else if !idle {
		return false, false
	}
	if deadline != simnet.Never {
		clk.AdvanceTo(deadline)
	}
	return false, true
}

// Len reports the number of pending completions.
func (c *CQ) Len() int { return c.box.Len() }

// Destroy closes the queue, waking any waiter, and drops the
// completions still queued: nothing polls a destroyed CQ.
func (c *CQ) Destroy() {
	c.box.Close()
	var wc WC
	for c.Poll(&wc) {
	}
}
