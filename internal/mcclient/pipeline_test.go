package mcclient

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// pipelineScript drives ~100 mixed Set/Get/Delete requests over 16 keys
// through a window-4 pipeline and checks every future against a model
// that assumes FIFO execution (one connection; both protocols deliver
// and serve requests in issue order). Values are key- and op-derived so
// a reply landing in the wrong slot is caught by content, not just by
// status.
func pipelineScript(t *testing.T, pl Pipeliner, clk *simnet.VClock) {
	t.Helper()
	pipe := pl.Pipeline(4)
	if pipe.Window() != 4 {
		t.Fatalf("Window = %d", pipe.Window())
	}
	model := map[string][]byte{}
	type getExp struct {
		f    *GetFuture
		want []byte
		hit  bool
	}
	type delExp struct {
		f    *BoolFuture
		want bool
	}
	var gets []getExp
	var sets []*SetFuture
	var dels []delExp
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%02d", i%16)
		switch i % 5 {
		case 0, 3:
			v := []byte(fmt.Sprintf("%s#%03d#%032d", key, i, i))
			sets = append(sets, pipe.StartSet(clk, key, uint32(i), 0, v))
			model[key] = v
		case 2:
			_, had := model[key]
			dels = append(dels, delExp{f: pipe.StartDelete(clk, key), want: had})
			delete(model, key)
		default:
			want, hit := model[key]
			var f *GetFuture
			if i%2 == 0 {
				f = pipe.StartGetInto(clk, key, make([]byte, 0, 64))
			} else {
				f = pipe.StartGet(clk, key)
			}
			gets = append(gets, getExp{f: f, want: want, hit: hit})
		}
	}
	if err := pipe.Wait(clk); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, s := range sets {
		if res, err := s.Wait(clk); err != nil || res != memcached.Stored {
			t.Fatalf("set %d = (%v, %v)", i, res, err)
		}
	}
	for i, d := range dels {
		if ok, err := d.f.Wait(clk); err != nil || ok != d.want {
			t.Fatalf("delete %d = (%v, %v), want %v", i, ok, err, d.want)
		}
	}
	for i, g := range gets {
		v, _, _, hit, err := g.f.Wait(clk)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if hit != g.hit {
			t.Fatalf("get %d hit = %v, want %v", i, hit, g.hit)
		}
		if hit && !bytes.Equal(v, g.want) {
			t.Fatalf("get %d = %q, want %q (reply landed in wrong slot?)", i, v, g.want)
		}
	}
}

func TestPipelineMixedOpsUCR(t *testing.T) {
	st := newStack(t)
	tr, _ := st.ucrClient(t)
	defer tr.Close()
	pipelineScript(t, tr, simnet.NewVClock(0))
}

func TestPipelineMixedOpsSock(t *testing.T) {
	st := newStack(t)
	tr := st.sockClient(t)
	defer tr.Close()
	pipelineScript(t, tr, simnet.NewVClock(0))
}

// TestPipelineFaultDropsUCR reruns the mixed script over a lossy fabric
// with an operation timeout armed: RC retransmission recovers the
// drops, AM retries cover anything slower than the per-attempt budget,
// and tagged slots keep any duplicate replies from corrupting later
// requests in the window.
func TestPipelineFaultDropsUCR(t *testing.T) {
	st := newStack(t)
	node := st.nw.AddNode("faulty-cli")
	hca := verbs.NewHCA(node, st.fab, verbs.Config{
		PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100,
	})
	rt := ucr.New(hca, st.cm, ucr.Config{AMRetries: 2})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	b := DefaultBehaviors()
	b.OpTimeout = 200 * simnet.Millisecond
	tr, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", b, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	st.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 11, DropRate: 0.05}))
	defer st.fab.SetFaults(nil)
	pipelineScript(t, tr, clk)
}

// TestPipelineWaitOutOfOrder settles futures in reverse issue order on
// UCR — tagged slots let a later future be waited first without
// disturbing earlier in-flight requests.
func TestPipelineWaitOutOfOrder(t *testing.T) {
	st := newStack(t)
	tr, _ := st.ucrClient(t)
	defer tr.Close()
	clk := simnet.NewVClock(0)
	for i := 0; i < 8; i++ {
		if _, err := tr.Set(clk, fmt.Sprintf("o%d", i), 0, 0, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pipe := tr.Pipeline(8)
	futures := make([]*GetFuture, 8)
	for i := range futures {
		futures[i] = pipe.StartGet(clk, fmt.Sprintf("o%d", i))
	}
	if err := pipe.Flush(clk); err != nil {
		t.Fatal(err)
	}
	for i := 7; i >= 0; i-- {
		v, _, _, hit, err := futures[i].Wait(clk)
		if err != nil || !hit || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("future %d = (%q, %v, %v)", i, v, hit, err)
		}
	}
	if err := pipe.Wait(clk); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineOneAllocPerOp: a pipelined request allocates its future
// and nothing else on either transport — the window entry is embedded
// in the future, settle/wait/land are methods on it, and the sockets
// queue lives in one backing array. Futures are not recycled, so a
// settled one can be waited again.
func TestPipelineOneAllocPerOp(t *testing.T) {
	const window = 4
	st := newStack(t)
	utr, _ := st.ucrClient(t)
	for name, tr := range map[string]Transport{"sockets": st.sockClient(t), "ucr": utr} {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			clk := simnet.NewVClock(0)
			if _, err := tr.Set(clk, "piped", 0, 0, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
			pipe := tr.(Pipeliner).Pipeline(window)
			var bufs [window][]byte
			var futs [window]*GetFuture
			for i := range bufs {
				bufs[i] = make([]byte, 0, 512)
			}
			round := func() {
				for i := range futs {
					futs[i] = pipe.StartGetInto(clk, "piped", bufs[i])
				}
				for _, f := range futs {
					if v, _, _, hit, err := f.Wait(clk); err != nil || !hit || len(v) != 512 {
						t.Fatalf("Wait = (%d, %v, %v)", len(v), hit, err)
					}
				}
			}
			for i := 0; i < 8; i++ { // warm op pools, segment lists, queues
				round()
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != window {
				t.Fatalf("%v allocs per window of %d, want one future per op", allocs, window)
			}
			if v, _, _, hit, err := futs[0].Wait(clk); err != nil || !hit || len(v) != 512 {
				t.Fatalf("second Wait = (%d, %v, %v)", len(v), hit, err)
			}
		})
	}
}
