package mcclient

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// TestWorkerPoolStressMidBurstClose hammers the server's worker-pool
// serving loop from concurrent pipelined clients on both transports,
// then closes the server in the middle of the traffic. The contract
// under test: every started future settles — success before the close,
// an error after it, never a hang — and nothing races (run this under
// -race; each client goroutine owns its transport and clock, the
// worker pool is the shared side).
func TestWorkerPoolStressMidBurstClose(t *testing.T) {
	st := newStack(t)

	const (
		clients  = 4 // 2 UCR + 2 sockets
		bursts   = 6
		burstOps = 24
		window   = 8
		closeAt  = 2 // worker 0 triggers the close after this many bursts
	)

	behav := DefaultBehaviors()
	behav.OpTimeout = simnet.Second

	// Dial every transport up front: the stack's dial helpers and the
	// shared fabric topology are not goroutine-safe, only serving is.
	transports := make([]interface {
		Pipeliner
		Close()
	}, clients)
	for i := 0; i < clients; i++ {
		node := st.nw.AddNode(fmt.Sprintf("stress%d", i))
		st.fab.Attach(node)
		if i%2 == 0 {
			transports[i] = dialStressUCR(t, st, node, behav)
		} else {
			tr, err := DialSock(st.prov, node, st.srvNode, "mc", simnet.NewVClock(0))
			if err != nil {
				t.Fatal(err)
			}
			transports[i] = tr
		}
	}

	// Client 0 waits for the close it triggers: with the server stepped
	// inline the other bursts take microseconds of host time, and a close
	// left to the scheduler could land after all of them.
	closeNow, closed := make(chan struct{}), make(chan struct{})
	var closeOnce sync.Once
	var closerWG sync.WaitGroup
	closerWG.Add(1)
	go func() {
		defer closerWG.Done()
		<-closeNow
		st.server.Close()
		close(closed)
	}()

	type outcome struct {
		settled, failed int
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			clk := simnet.NewVClock(0)
			pl := transports[ci].Pipeline(window)
			val := []byte("stress-value-0123456789")
			for b := 0; b < bursts; b++ {
				var gets []*GetFuture
				var sets []*SetFuture
				var dels []*BoolFuture
				for i := 0; i < burstOps; i++ {
					key := fmt.Sprintf("s%d-%d", ci, i%7)
					switch i % 4 {
					case 0, 1:
						gets = append(gets, pl.StartGet(clk, key))
					case 2:
						sets = append(sets, pl.StartSet(clk, key, 0, 0, val))
					default:
						dels = append(dels, pl.StartDelete(clk, key))
					}
					if ci == 0 && b == closeAt && i == burstOps/2 {
						closeOnce.Do(func() { close(closeNow) })
						<-closed
					}
				}
				// The pipeline's Wait settles every future; each future's own
				// Wait then spends it, so done is read before that.
				pl.Wait(clk)
				for _, f := range gets {
					if !f.done {
						t.Errorf("client %d burst %d: get future did not settle", ci, b)
					}
					if _, _, _, _, err := f.Wait(clk); err != nil {
						results[ci].failed++
					}
					results[ci].settled++
				}
				for _, f := range sets {
					if !f.done {
						t.Errorf("client %d burst %d: set future did not settle", ci, b)
					}
					if _, err := f.Wait(clk); err != nil {
						results[ci].failed++
					}
					results[ci].settled++
				}
				for _, f := range dels {
					if !f.done {
						t.Errorf("client %d burst %d: delete future did not settle", ci, b)
					}
					if _, err := f.Wait(clk); err != nil {
						results[ci].failed++
					}
					results[ci].settled++
				}
			}
			transports[ci].Close()
		}(ci)
	}
	wg.Wait()
	closeOnce.Do(func() { close(closeNow) }) // in case no worker reached closeAt
	closerWG.Wait()

	total, failed := 0, 0
	for ci, r := range results {
		if r.settled != bursts*burstOps {
			t.Errorf("client %d: settled %d of %d futures", ci, r.settled, bursts*burstOps)
		}
		total += r.settled
		failed += r.failed
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
