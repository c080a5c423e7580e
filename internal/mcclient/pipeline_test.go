package mcclient

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
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
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	b := DefaultBehaviors()
	b.OpTimeout = (1 + amRetries) * 200 * simnet.Millisecond / 3 // ≈ 67 ms per attempt
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

// windowClient is one path a pipelined window can take.
type windowClient struct {
	name string
	tr   Transport
	wr   *UCRTransport // the transport when write replies are armed
}

func (c windowClient) writeHits() uint64 {
	if c.wr == nil {
		return 0
	}
	return c.wr.WriteReplyHits()
}

// windowClients dials sockets, UCR, and UCR with write replies armed,
// whose GETs take the deferred landing (window.deferred), on one server.
func windowClients(t *testing.T) []windowClient {
	st := newStack(t)
	utr, _ := st.ucrClient(t)
	wtr, _ := st.ucrClient(t)
	if err := wtr.Arm(simnet.NewVClock(0), false, true); err != nil {
		t.Fatal(err)
	}
	return []windowClient{{"sockets", st.sockClient(t), nil}, {"ucr", utr, nil}, {"ucr-wrreply", wtr, wtr}}
}

// TestPipelineZeroAllocPerOp: a steady-state pipelined GET allocates
// nothing on either transport — each Wait hands its future back to the
// window for the next Start, the window entry is embedded in the
// future, and the sockets queue lives in one backing array. With write
// replies armed, a GET's landing runs inside its own Wait, which takes
// the future off the window's deferred list before it is spent.
func TestPipelineZeroAllocPerOp(t *testing.T) {
	const window = 4
	for _, c := range windowClients(t) {
		t.Run(c.name, func(t *testing.T) {
			defer c.tr.Close()
			clk := simnet.NewVClock(0)
			size := 512
			if c.wr != nil {
				size = 4096 // past the write-reply crossover
			}
			if _, err := c.tr.Set(clk, "piped", 0, 0, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			pipe := c.tr.(Pipeliner).Pipeline(window)
			var bufs [window][]byte
			var futs [window]*GetFuture
			for i := range bufs {
				bufs[i] = make([]byte, 0, size)
			}
			round := func() {
				for i := range futs {
					futs[i] = pipe.StartGetInto(clk, "piped", bufs[i])
				}
				for _, f := range futs {
					if v, _, _, hit, err := f.Wait(clk); err != nil || !hit || len(v) != size {
						t.Fatalf("Wait = (%d, %v, %v)", len(v), hit, err)
					}
				}
			}
			for i := 0; i < 8; i++ { // warm op pools, segment lists, queues, spares
				round()
			}
			hits := c.writeHits()
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < allocOps/window; i++ {
					round()
				}
			}); allocs != 0 {
				t.Fatalf("%v allocs in %d windows of %d, want 0", allocs, allocOps/window, window)
			}
			if c.wr != nil && c.writeHits() == hits {
				t.Fatal("measured rounds never took the write-reply path (vacuous)")
			}
		})
	}
}

// TestPipelineSpentFuturesNeverCross: a seeded interleaving of starts and
// out-of-order Waits over distinct keys, so spent futures are reissued
// while older ones are still outstanding. Every Wait must return its own
// op's value, flags and outcome. A key has at most one unwaited op, so
// each op's outcome is fixed when it is issued; a value names its key
// and op, so a result read through a recycled future shows.
func TestPipelineSpentFuturesNeverCross(t *testing.T) {
	const window, nKeys, ops = 4, 12, 600
	for _, c := range windowClients(t) {
		t.Run(c.name, func(t *testing.T) {
			defer c.tr.Close()
			clk := simnet.NewVClock(0)
			hits := c.writeHits()
			rng := rand.New(rand.NewPCG(46, uint64(len(c.name))))
			pipe := c.tr.(Pipeliner).Pipeline(window)
			type entry struct {
				val   []byte
				flags uint32
			}
			model := map[string]entry{}
			type pending struct {
				op, key string
				seq     int
				get     *GetFuture
				set     *SetFuture
				del     *BoolFuture
				want    entry
				hit     bool
			}
			var outstanding []pending
			waits := 0
			busy := map[string]bool{}
			futures := map[*future]bool{}
			wait := func(i int) {
				p := outstanding[i]
				outstanding = slices.Delete(outstanding, i, i+1)
				delete(busy, p.key)
				switch p.op {
				case "set":
					if res, err := p.set.Wait(clk); err != nil || res != memcached.Stored {
						t.Fatalf("op %d set %s = (%v, %v)", p.seq, p.key, res, err)
					}
				case "delete":
					if ok, err := p.del.Wait(clk); err != nil || ok != p.hit {
						t.Fatalf("op %d delete %s = (%v, %v), want %v", p.seq, p.key, ok, err, p.hit)
					}
				default:
					v, flags, _, hit, err := p.get.Wait(clk)
					if err != nil || hit != p.hit || hit && (!bytes.Equal(v, p.want.val) || flags != p.want.flags) {
						t.Fatalf("op %d %s %s = (%.24q, flags %d, hit %v, %v), want (%.24q, flags %d, hit %v)",
							p.seq, p.op, p.key, v, flags, hit, err, p.want.val, p.want.flags, p.hit)
					}
				}
			}
			for seq := 0; seq < ops; seq++ {
				if len(outstanding) > 0 && (len(busy) == nKeys || rng.IntN(5) < 2) {
					wait(rng.IntN(len(outstanding)))
					waits++
					continue
				}
				key := fmt.Sprintf("%s-%02d", c.name, rng.IntN(nKeys))
				for busy[key] {
					key = fmt.Sprintf("%s-%02d", c.name, rng.IntN(nKeys))
				}
				busy[key] = true
				p := pending{key: key, seq: seq}
				p.want, p.hit = model[key]
				switch r := rng.IntN(8); {
				case r < 3:
					p.op = "set"
					v := bytes.Repeat([]byte{byte('a' + seq%26)}, 1500+rng.IntN(1000))
					copy(v, fmt.Sprintf("%s#%04d#", key, seq))
					p.set = pipe.StartSet(clk, key, uint32(seq), 0, v)
					futures[(*future)(p.set)] = true
					model[key] = entry{val: v, flags: uint32(seq)}
				case r < 4:
					p.op = "delete"
					p.del = pipe.StartDelete(clk, key)
					futures[(*future)(p.del)] = true
					delete(model, key)
				case r < 6:
					p.op = "get"
					p.get = pipe.StartGet(clk, key)
					futures[(*future)(p.get)] = true
				default:
					p.op = "getinto"
					p.get = pipe.StartGetInto(clk, key, make([]byte, 0, 2600))
					futures[(*future)(p.get)] = true
				}
				outstanding = append(outstanding, p)
			}
			for len(outstanding) > 0 {
				wait(rng.IntN(len(outstanding)))
			}
			if err := pipe.Wait(clk); err != nil {
				t.Fatalf("pipeline Wait: %v", err)
			}
			if starts := ops - waits; 2*len(futures) > starts {
				t.Fatalf("%d distinct futures for %d starts, want spent ones reissued", len(futures), starts)
			}
			if c.wr != nil && c.writeHits() == hits {
				t.Fatal("no GET took the write-reply path (vacuous)")
			}
		})
	}
}

// TestWindowFailurePaths drives a window's flush and failure paths on
// both transports, one table of rows:
//   - an exported Flush writes what the window queued (sockets: one
//     Write, charged to the caller's clock; UCR posted at admission, so
//     nothing is left to write) and returns nil on a healthy connection,
//     and a second Flush has nothing left to do;
//   - on a closed connection every send fails: a future's own Wait on a
//     request that never reached the wire settles ErrServerDown, so does
//     every other future of the window, and the sticky error is what
//     Flush and Wait return from then on.
func TestWindowFailurePaths(t *testing.T) {
	st := newStack(t)
	utr, _ := st.ucrClient(t)
	for _, c := range []struct {
		name       string
		tr         Transport
		flushMoves bool // Flush writes queued requests, charged to the caller's clock
	}{
		{"sockets", st.sockClient(t), true},
		{"ucr", utr, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := simnet.NewVClock(0)
			pipe := c.tr.(Pipeliner).Pipeline(4)
			set := pipe.StartSet(clk, "fl-"+c.name, 3, 0, []byte("flushed"))
			get := pipe.StartGet(clk, "fl-"+c.name)
			before := clk.Now()
			if err := pipe.Flush(clk); err != nil {
				t.Fatalf("Flush on a healthy connection = %v", err)
			}
			if moved := clk.Now() != before; moved != c.flushMoves {
				t.Fatalf("Flush moved the clock %d → %d, want a write: %v", before, clk.Now(), c.flushMoves)
			}
			after := clk.Now()
			if err := pipe.Flush(clk); err != nil || clk.Now() != after {
				t.Fatalf("second Flush = %v, clock %d → %d: want nothing left to write", err, after, clk.Now())
			}
			if res, err := set.Wait(clk); err != nil || res != memcached.Stored {
				t.Fatalf("flushed set = (%v, %v)", res, err)
			}
			if v, flags, _, hit, err := get.Wait(clk); err != nil || !hit || flags != 3 || string(v) != "flushed" {
				t.Fatalf("flushed get = (%q, %d, %v, %v)", v, flags, hit, err)
			}
			if err := pipe.Wait(clk); err != nil {
				t.Fatalf("Wait on a healthy window = %v", err)
			}

			c.tr.Close()
			pipe = c.tr.(Pipeliner).Pipeline(4)
			set = pipe.StartSet(clk, "closed", 0, 0, []byte("never"))
			get = pipe.StartGet(clk, "closed")
			del := pipe.StartDelete(clk, "closed")
			if v, _, _, hit, err := get.Wait(clk); err != ErrServerDown || hit || v != nil {
				t.Fatalf("get on a closed connection = (%q, %v, %v), want ErrServerDown", v, hit, err)
			}
			if err := pipe.Flush(clk); err != ErrServerDown {
				t.Fatalf("Flush after a failed send = %v, want the sticky ErrServerDown", err)
			}
			if res, err := set.Wait(clk); err != ErrServerDown {
				t.Fatalf("set on a closed connection = (%v, %v), want ErrServerDown", res, err)
			}
			if ok, err := del.Wait(clk); err != ErrServerDown || ok {
				t.Fatalf("delete on a closed connection = (%v, %v), want ErrServerDown", ok, err)
			}
			if err := pipe.Wait(clk); err != ErrServerDown {
				t.Fatalf("Wait after a failed send = %v, want the sticky ErrServerDown", err)
			}
		})
	}
}

// TestBlockingCallAfterFailedWindow: a failed op leaves its window's
// sticky error set — the stream may be out of step — but a blocking call
// starts a fresh window of one and inherits none of it, after a failed
// pipelined op as after a failed blocking one.
func TestBlockingCallAfterFailedWindow(t *testing.T) {
	st := newStack(t)
	scriptedServer(t, st, "sticky",
		"VALUE other 0 5 9\r\nwrong\r\nEND\r\n", // pipelined get
		"STORED\r\n",                            // blocking set
		"VALUE other 0 5 9\r\nwrong\r\nEND\r\n", // blocking get
		"DELETED\r\n",                           // blocking delete
	)
	tr := st.dialSock(t, "sticky")
	defer tr.Close()
	clk := simnet.NewVClock(0)

	pipe := tr.Pipeline(2)
	f := pipe.StartGet(clk, "mine")
	if err := pipe.Wait(clk); err == nil {
		t.Fatal("pipelined get answered for another key: Wait = nil, want the sticky error")
	}
	if _, _, _, _, err := f.Wait(clk); err == nil {
		t.Fatal("pipelined get answered for another key: future settled without error")
	}
	if res, err := tr.Set(clk, "mine", 0, 0, []byte("v")); err != nil || res != memcached.Stored {
		t.Fatalf("blocking Set after a failed pipelined get = (%v, %v), want Stored", res, err)
	}
	if _, _, _, _, err := tr.Get(clk, "mine"); err == nil {
		t.Fatal("blocking get answered for another key: err = nil")
	}
	if ok, err := tr.Delete(clk, "mine"); err != nil || !ok {
		t.Fatalf("blocking Delete after a failed blocking get = (%v, %v), want true", ok, err)
	}
}
