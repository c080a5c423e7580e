package mcclient

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// TestWorkerPoolStressMidBurstClose hammers the server's worker-pool
// serving loop from pipelined clients on both transports, then closes
// the server in the middle of the traffic. The clients are logical: each
// step starts one op of one client's burst, or waits out a burst, and a
// seeded draw interleaves the steps on the test goroutine; the close is
// a step between two of client 0's starts. The contract under test:
// every started future settles — success before the close, an error
// after it, never a hang — and, with nothing left to the scheduler, two
// runs settle and fail the same futures per client.
func TestWorkerPoolStressMidBurstClose(t *testing.T) {
	first, second := stressMidBurstClose(t, 53), stressMidBurstClose(t, 53)
	if !slices.Equal(first, second) {
		t.Fatalf("per-client outcomes differ between two runs of one seed:\n%v\n%v", first, second)
	}
}

// stressOutcome is one client's futures: how many settled, how many of
// them with an error.
type stressOutcome struct {
	settled, failed int
}

// stressMidBurstClose runs the scenario once on a fresh deployment and
// returns each client's outcome.
func stressMidBurstClose(t *testing.T, seed uint64) []stressOutcome {
	t.Helper()
	st := newStack(t)

	const (
		clients  = 4 // 2 UCR + 2 sockets
		bursts   = 6
		burstOps = 24
		window   = 8
		closeAt  = 2 // client 0 closes the server midway through this burst
	)

	behav := DefaultBehaviors()
	behav.OpTimeout = simnet.Second

	type client struct {
		tr interface {
			Pipeliner
			Close()
		}
		clk   *simnet.VClock
		pl    Pipeline
		burst int // bursts waited out
		op    int // ops started in the current burst
		gets  []*GetFuture
		sets  []*SetFuture
		dels  []*BoolFuture
		out   stressOutcome
	}
	cls := make([]*client, clients)
	for i := range cls {
		node := st.nw.AddNode(fmt.Sprintf("stress%d", i))
		st.fab.Attach(node)
		c := &client{clk: simnet.NewVClock(0)}
		if i%2 == 0 {
			c.tr = dialStressUCR(t, st, node, behav)
		} else {
			tr, err := DialSock(st.prov, node, st.srvNode, "mc", simnet.NewVClock(0))
			if err != nil {
				t.Fatal(err)
			}
			c.tr = tr
		}
		c.pl = c.tr.Pipeline(window)
		cls[i] = c
	}

	val := []byte("stress-value-0123456789")
	// start issues the client's next op of its burst.
	start := func(ci int, c *client) {
		key := fmt.Sprintf("s%d-%d", ci, c.op%7)
		switch c.op % 4 {
		case 0, 1:
			c.gets = append(c.gets, c.pl.StartGet(c.clk, key))
		case 2:
			c.sets = append(c.sets, c.pl.StartSet(c.clk, key, 0, 0, val))
		default:
			c.dels = append(c.dels, c.pl.StartDelete(c.clk, key))
		}
		c.op++
	}
	// finish waits out the client's burst. The pipeline's Wait settles
	// every future; each future's own Wait then spends it, so done is
	// read before that.
	finish := func(ci int, c *client) {
		c.pl.Wait(c.clk)
		settled := func(f *future) {
			if !f.done {
				t.Errorf("client %d burst %d: future did not settle", ci, c.burst)
			}
		}
		for _, f := range c.gets {
			settled((*future)(f))
			if _, _, _, _, err := f.Wait(c.clk); err != nil {
				c.out.failed++
			}
			c.out.settled++
		}
		for _, f := range c.sets {
			settled((*future)(f))
			if _, err := f.Wait(c.clk); err != nil {
				c.out.failed++
			}
			c.out.settled++
		}
		for _, f := range c.dels {
			settled((*future)(f))
			if _, err := f.Wait(c.clk); err != nil {
				c.out.failed++
			}
			c.out.settled++
		}
		c.gets, c.sets, c.dels = c.gets[:0], c.sets[:0], c.dels[:0]
		c.op = 0
		if c.burst++; c.burst == bursts {
			c.tr.Close()
		}
	}

	rng := rand.New(rand.NewPCG(seed, 0))
	closed := false
	live := []int{0, 1, 2, 3}
	for len(live) > 0 {
		k := rng.IntN(len(live))
		ci := live[k]
		c := cls[ci]
		if c.op < burstOps {
			start(ci, c)
			if ci == 0 && c.burst == closeAt && c.op == burstOps/2 {
				st.server.Close()
				closed = true
			}
			continue
		}
		finish(ci, c)
		if c.burst == bursts {
			live = slices.Delete(live, k, k+1)
		}
	}
	if !closed {
		t.Fatal("client 0 never reached the close step")
	}

	out := make([]stressOutcome, clients)
	total, failed := 0, 0
	for ci, c := range cls {
		if c.out.settled != bursts*burstOps {
			t.Errorf("client %d: settled %d of %d futures", ci, c.out.settled, bursts*burstOps)
		}
		out[ci] = c.out
		total += c.out.settled
		failed += c.out.failed
	}
	t.Logf("futures settled: %d (failed after close: %d)", total, failed)
	// The close lands mid-traffic, so at least one op must have seen a
	// live server and at least the closer's own later ops must fail —
	// both zero would mean the scenario went vacuous.
	if failed == 0 {
		t.Errorf("server close was a no-op: all %d futures succeeded", total)
	}
	if failed == total {
		t.Errorf("no future succeeded before the close (server never served)")
	}
	return out
}

// dialStressUCR dials a UCR transport from a caller-provided node (the
// stack's ucrClient helper hardcodes DefaultBehaviors; the stress test
// needs an op timeout so waits against the closed server settle).
func dialStressUCR(t *testing.T, st *stack, node *simnet.Node, behav Behaviors) *UCRTransport {
	t.Helper()
	hca := verbs.NewHCA(node, st.fab, verbs.Config{
		PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100,
	})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	tr, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", behav, simnet.NewVClock(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Destroy)
	return tr
}
