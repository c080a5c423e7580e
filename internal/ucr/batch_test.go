package ucr

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simnet"
)

// sweepWorld is the echo world with a client reply handler that spends
// work per reply (the caller's copy-out) and records, per reply counter,
// whether the reply was dispatched as the 2nd..Nth of a drain.
type sweepWorld struct {
	*world
	ep        *Endpoint
	work      simnet.Duration
	coalesced map[CounterID]bool
}

func newSweepWorld(t *testing.T) *sweepWorld {
	t.Helper()
	w := &sweepWorld{world: newWorld(t, Config{HandlerOverhead: 400}), coalesced: map[CounterID]bool{}}
	w.cliRT.RegisterHandler(midReply, Handler{
		Header: func(*simnet.VClock, *Endpoint, []byte, int, CounterID) []byte { return make([]byte, 1024) },
		Completion: func(clk *simnet.VClock, _ *Endpoint, _, _ []byte, ctr CounterID) {
			w.coalesced[ctr] = w.cliCtx.InCoalescedDrain()
			clk.Advance(w.work)
		},
	})
	w.ep = w.dial(t, Reliable)
	return w
}

// post sends n 1 KB echo requests back to back and harvests their own
// send completions, leaving the CQ to the replies.
func (w *sweepWorld) post(t *testing.T, n int) []*Counter {
	t.Helper()
	ctrs := make([]*Counter, n)
	for i := range ctrs {
		ctrs[i] = w.cliRT.NewCounter()
		hdr := binary.LittleEndian.AppendUint64(nil, uint64(ctrs[i].ID()))
		if err := w.ep.Send(w.cliClk, midRequest, hdr, make([]byte, 1024), nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for w.cliCtx.TryProgress(w.cliClk) {
	}
	return ctrs
}

func values(ctrs []*Counter) []uint64 {
	v := make([]uint64, len(ctrs))
	for i, c := range ctrs {
		v[i] = c.Value()
	}
	return v
}

// A pipelined waiter's sweep is a function of its own completion stamps
// (WaitCounterBatch), and the post side takes one visible reply at most
// (Sweep): a waiter that parked for its reply sweeps nothing, one that
// found its reply already landed sweeps up to batch-1, and no sweep
// takes a completion stamped after the clock.
func TestSweepReadsCompletionStamps(t *testing.T) {
	t.Run("parked waiter leaves visible replies", func(t *testing.T) {
		w := newSweepWorld(t)
		w.work = 10 * simnet.Microsecond // landing a reply outlasts the gap to the next
		ctrs := w.post(t, 3)
		drains := w.cliCtx.BatchedDrains()
		if err := w.cliCtx.WaitCounterBatch(w.cliClk, ctrs[0], 1, 0, 4); err != nil {
			t.Fatal(err)
		}
		if got := values(ctrs); got[1] != 0 || got[2] != 0 || w.cliCtx.BatchedDrains() != drains {
			t.Fatalf("a waiter that parked for its reply swept: counters %v, batched drains %d → %d",
				got, drains, w.cliCtx.BatchedDrains())
		}
		// Both replies are visible; the post-side sweep takes one of them.
		if n := w.cliCtx.Sweep(w.cliClk, 1); n != 1 || ctrs[1].Value() != 1 || ctrs[2].Value() != 0 {
			t.Fatalf("Sweep(1) took %d, counters %v: want the next reply only", n, values(ctrs))
		}
		if !w.coalesced[ctrs[1].ID()] {
			t.Error("the post-side sweep charged a full harvest")
		}
		if n := w.cliCtx.Sweep(w.cliClk, 1); n != 1 || ctrs[2].Value() != 1 {
			t.Fatalf("second Sweep(1) took %d, counters %v", n, values(ctrs))
		}
	})

	t.Run("sweep never takes a future completion", func(t *testing.T) {
		w := newSweepWorld(t)
		ctrs := w.post(t, 2)
		if err := w.cliCtx.WaitCounterBatch(w.cliClk, ctrs[0], 1, 0, 4); err != nil {
			t.Fatal(err)
		}
		// The server sends a 1 KB reply every poll + handler + two copies;
		// the client lands one in poll + handler + one copy, so the second
		// reply is still on the wire.
		now := w.cliClk.Now()
		if n := w.cliCtx.Sweep(w.cliClk, 1); n != 0 || ctrs[1].Value() != 0 || w.cliClk.Now() != now {
			t.Fatalf("Sweep took %d (counter %d) stamped after the clock; clock %v → %v",
				n, ctrs[1].Value(), now, w.cliClk.Now())
		}
		if w.cliCtx.cq.Len() != 1 {
			t.Fatalf("%d completions queued, want the second reply", w.cliCtx.cq.Len())
		}
		w.cliClk.Advance(10 * simnet.Microsecond)
		if n := w.cliCtx.Sweep(w.cliClk, 1); n != 1 || ctrs[1].Value() != 1 {
			t.Fatalf("Sweep took %d once the reply had landed", n)
		}
	})

	t.Run("behind waiter sweeps batch-1 coalesced", func(t *testing.T) {
		w := newSweepWorld(t)
		ctrs := w.post(t, 3)
		w.cliClk.Advance(simnet.Millisecond) // every reply lands before the waiter polls
		start, drains := w.cliClk.Now(), w.cliCtx.BatchedDrains()
		if err := w.cliCtx.WaitCounterBatch(w.cliClk, ctrs[0], 1, 0, 2); err != nil {
			t.Fatal(err)
		}
		if got := values(ctrs); got[1] != 1 || got[2] != 0 {
			t.Fatalf("batch 2 behind its CQ: counters %v, want the target and one more", got)
		}
		if w.coalesced[ctrs[0].ID()] || !w.coalesced[ctrs[1].ID()] || w.cliCtx.BatchedDrains() != drains+1 {
			t.Fatalf("coalesced %v, batched drains %d → %d: want a full harvest, then one coalesced",
				w.coalesced, drains, w.cliCtx.BatchedDrains())
		}
		// Full poll + handler + copy, then half a poll + a quarter handler + copy.
		cfg := hcaConfig()
		cp := simnet.BytesDuration(1024, w.cliRT.cfg.PackBytesPerSec)
		want := cfg.PollOverhead + 400 + cp + cfg.PollOverhead/2 + 100 + cp
		if got := w.cliClk.Now() - start; got != want {
			t.Errorf("the wait charged %v, want %v", got, want)
		}
	})
}

// TestTryProgressNOneProbe: the drain that probes each completion once
// harvests exactly what the two-probe rule it replaced did — after the
// first harvest, PollSpin(0) and then PollSpin(pollSpin) for every
// further one, and one more TryProgressN whenever a sweep harvested
// anything — at the same clocks, in the same order and with the same
// coalesced flags, over heads stamped at or before the drainer's clock,
// inside the spin, past it, and an empty CQ, with and without a drain
// just before. The echo handler's replies put send completions in the
// drained CQ mid-sweep, and a second round of requests lands in a CQ a
// sweep already ran dry, so a stale verbs.CQ.Drained shows.
func TestTryProgressNOneProbe(t *testing.T) {
	// twoProbe is TryProgressN as it was: the reference.
	twoProbe := func(c *Context, clk *simnet.VClock, max int) int {
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
		c.dispatch(clk, &wc)
		c.coalesced = false
		n := 1
		for n < max {
			ok := c.cq.PollSpin(clk, 0, &wc)
			if !ok {
				ok = c.cq.PollSpin(clk, pollSpin, &wc)
			}
			if !ok {
				break
			}
			c.coalesced = true
			c.dispatch(clk, &wc)
			c.coalesced = false
			n++
		}
		if n > 1 {
			c.batchedDrains++
		}
		c.drainEnd = clk.Now()
		return n
	}
	type dispatched struct {
		tag       byte
		at        simnet.Time
		coalesced bool
	}
	type outcome struct {
		log       []dispatched
		sweeps    []int // completions per productive TryProgressN call
		clk       simnet.Time
		drainEnd  simnet.Time
		batched   uint64
		left      int
		dispatchN int
	}
	// run sends one request per gap (0: back to back) and drains the
	// server's CQ from lag after the first send, rounds times over: a
	// later round's requests land in a CQ an earlier sweep ran dry.
	run := func(gaps []simnet.Duration, lag simnet.Duration, rounds int, prior bool, max int, oneProbe bool) outcome {
		w := newWorld(t, Config{HandlerOverhead: 400})
		var out outcome
		c := w.srvCtx
		w.srvRT.RegisterHandler(midRequest, Handler{
			Header: func(*simnet.VClock, *Endpoint, []byte, int, CounterID) []byte { return nil },
			Completion: func(clk *simnet.VClock, ep *Endpoint, hdr, _ []byte, _ CounterID) {
				out.log = append(out.log, dispatched{hdr[8], clk.Now(), c.InCoalescedDrain()})
				if err := ep.Send(clk, midReply, hdr[8:], nil, nil, 0, nil); err != nil {
					t.Error(err)
				}
			},
		})
		ep := w.dial(t, Reliable)
		clk := simnet.NewVClock(0)
		for r := 0; r < rounds; r++ {
			w.cliClk.AdvanceTo(clk.Now())
			first := w.cliClk.Now()
			for i, gap := range gaps {
				w.cliClk.Advance(gap)
				if err := ep.Send(w.cliClk, midRequest, append(make([]byte, 8), byte(r*len(gaps)+i)), nil, nil, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			if prior {
				c.drainEnd = first
			}
			clk.AdvanceTo(first + lag)
			for {
				// The reference's last call is the probe that finds the
				// CQ empty; the one-probe drain knows without it.
				var n int
				more := true
				if oneProbe {
					n, more = c.TryProgressN(clk, max)
				} else {
					n = twoProbe(c, clk, max)
				}
				if n > 0 {
					out.sweeps = append(out.sweeps, n)
				}
				if n == 0 || !more {
					break
				}
			}
		}
		out.clk, out.drainEnd, out.batched, out.left = clk.Now(), c.drainEnd, c.batchedDrains, c.cq.Len()
		out.dispatchN = len(out.log)
		return out
	}
	const us = simnet.Microsecond
	cases := []struct {
		name string
		gaps []simnet.Duration
		lag  simnet.Duration
	}{
		{"empty", nil, 0},
		{"backlog at or before now", []simnet.Duration{0, 0, 0, 0}, simnet.Millisecond},
		{"backlog, one landing at now", []simnet.Duration{0, 0}, 0},
		{"inside the spin", []simnet.Duration{0, us, us, us}, 0},
		{"past the spin", []simnet.Duration{0, 5 * us, 5 * us}, 0},
		{"inside then past", []simnet.Duration{0, us, 6 * us, us, 9 * us}, 0},
		{"future heads behind a visible one", []simnet.Duration{0, 2 * us, 2 * us}, us},
	}
	for _, tc := range cases {
		for _, prior := range []bool{false, true} {
			for _, max := range []int{1, 2, 16} {
				for rounds := 1; rounds <= 2; rounds++ {
					name := fmt.Sprintf("%s/prior=%v/max=%d/rounds=%d", tc.name, prior, max, rounds)
					t.Run(name, func(t *testing.T) {
						want := run(tc.gaps, tc.lag, rounds, prior, max, false)
						got := run(tc.gaps, tc.lag, rounds, prior, max, true)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("one probe:\n%+v\ntwo probes:\n%+v", got, want)
						}
						if got.dispatchN != rounds*len(tc.gaps) || got.left != 0 {
							t.Fatalf("dispatched %d of %d requests, %d completions left", got.dispatchN, rounds*len(tc.gaps), got.left)
						}
					})
				}
			}
		}
	}
}

// TestCreditWaitReentersProgress: a server handler that runs out of send
// credits (a receive depth of 2, six replies) waits for them inside its
// own completion's dispatch, harvesting the client's acks meanwhile. Each
// harvest lands in the frame that made it, so when the handler returns
// the outer dispatch still bumps the request's counter and recycles the
// request's own buffer — and no buffer reaches the pool twice.
func TestCreditWaitReentersProgress(t *testing.T) {
	const burst, midBurst = 6, 3
	w := newWorld(t, Config{Credits: 2})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)

	acked, served := w.srvRT.NewCounter(), w.srvRT.NewCounter()
	var reqBuf *byte   // the request's landing, by its hdr
	var ackedIn uint64 // acks the handler's own sends waited for
	w.srvRT.RegisterHandler(midBurst, Handler{
		Header: func(*simnet.VClock, *Endpoint, []byte, int, CounterID) []byte { return nil },
		Completion: func(clk *simnet.VClock, ep *Endpoint, hdr, _ []byte, _ CounterID) {
			reqBuf = &hdr[:1][0]
			for i := 0; i < burst; i++ {
				if err := ep.Send(clk, midReply, nil, []byte{byte(i)}, nil, 0, acked); err != nil {
					t.Errorf("reply %d: %v", i, err)
				}
			}
			ackedIn = acked.Value()
		},
	})

	// The client is an actor too, so the server's nested credit wait
	// steps it: it takes the replies and acks each one.
	ex := w.nw.Executor()
	done := simnet.NewMailboxOn[int](ex)
	cli := ex.NewActor(func() {
		for w.cliCtx.TryProgress(w.cliClk) {
		}
		if rc.runs == burst {
			done.Put(1)
		}
	})
	t.Cleanup(cli.Stop)
	w.cliCtx.SetOwner(cli)
	if err := ep.Send(w.cliClk, midBurst, []byte("burst"), nil, nil, served.ID(), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := done.Recv(); !ok {
		t.Fatal("done closed")
	}
	simnet.NewMailboxOn[int](ex).RecvIdle() // settle every send completion

	if ackedIn < burst-2 {
		t.Fatalf("handler returned with %d acks harvested, want ≥ %d: it never waited for a credit", ackedIn, burst-2)
	}
	if served.Value() != 1 {
		t.Fatalf("request counter = %d, want 1: the outer dispatch lost its completion", served.Value())
	}
	seen, reqBack := map[*byte]bool{}, false
	for i := 0; i < 64; i++ {
		b := w.srvCtx.cq.Buf(packetHdrSize + 1)
		if seen[&b[0]] {
			t.Fatalf("buffer %p handed out twice: a harvest was recycled by another frame", &b[0])
		}
		seen[&b[0]] = true
		reqBack = reqBack || &b[packetHdrSize] == reqBuf
	}
	if !reqBack {
		t.Fatal("the request's buffer never went back to the pool")
	}
}
