package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// Inline-stepped serving: the server's workers and dispatcher run on the
// goroutine of whichever caller waits for them.

// A deployment, its clients and a fleet create no goroutine — building,
// dialing, serving a thousand ops per transport and closing all happen
// on the caller's.
func TestDeploymentSpawnsNoGoroutines(t *testing.T) {
	// More than before is a failure; fewer is an earlier test's goroutine
	// winding down (a server's used to be six apiece).
	before := runtime.NumGoroutine()
	d := New(ClusterB(), Options{})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("cluster.New: %d goroutines, %d before", n, before)
	}
	val := bytes.Repeat([]byte("v"), 64)
	for _, tr := range []Transport{UCRIB, IPoIB} {
		c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("k%d", i%16)
			if i < 16 || i%10 == 0 {
				if err := c.MC.Set(key, val, 0, 0); err != nil {
					t.Fatal(err)
				}
			} else if v, _, _, err := c.MC.Get(key); err != nil || !bytes.Equal(v, val) {
				t.Fatalf("%s get %d: %q, %v", tr, i, v, err)
			}
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("after 1000 %s ops: %d goroutines, %d before", tr, n, before)
		}
		c.Close()
	}
	d.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("after Close: %d goroutines, %d before", n, before)
	}

	f, err := NewFleet(ClusterB(), FleetOptions{Servers: 4, Behaviors: mcclient.DefaultBehaviors()})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := f.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := fc.Set(fmt.Sprintf("f%d", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("fleet serving: %d goroutines, %d before", n, before)
	}
	fc.Close()
	f.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("after fleet Close: %d goroutines, %d before", n, before)
	}
}

// slidingGets keeps a window of GETs of 4 KB values in flight on one
// connection, landing in lent buffers: before each issue past the window
// it waits for the oldest reply. It returns the virtual makespan and the
// mean issue-to-reply latency.
func slidingGets(t *testing.T, window, ops int) (makespan, meanLat simnet.Duration) {
	t.Helper()
	d := New(ClusterB(), Options{})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const nKeys = 64
	keys := make([]string, nKeys)
	val := bytes.Repeat([]byte("x"), 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("window-slides-key-%07d", i) // 25 bytes, a typical key
		if err := c.MC.Set(keys[i], val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	pipe := c.MC.Transport(0).(mcclient.Pipeliner).Pipeline(window)
	futs := make([]*mcclient.GetFuture, window)
	start := make([]simnet.Time, window)
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, len(val))
	}
	var total simnet.Duration
	settle := func(slot int) {
		v, _, _, hit, err := futs[slot].Wait(c.Clock)
		if err != nil || !hit || !bytes.Equal(v, val) {
			t.Fatalf("pipelined get: hit=%v err=%v (%d bytes)", hit, err, len(v))
		}
		total += c.Clock.Now() - start[slot]
	}
	t0 := c.Clock.Now()
	for i := 0; i < ops; i++ {
		slot := i % window
		if i >= window {
			settle(slot)
		}
		start[slot] = c.Clock.Now()
		futs[slot] = pipe.StartGetInto(c.Clock, keys[i%nKeys], bufs[slot])
	}
	for i := ops; i < ops+window; i++ {
		settle(i % window)
	}
	return c.Clock.Now() - t0, total / simnet.Duration(ops)
}

// The pipelined cell that resolved ±1–3 % between same-seed runs while a
// worker goroutine raced the client: one process, any GOMAXPROCS, same
// virtual makespan to the nanosecond.
func TestPipelinedSameSeedSameBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want simnet.Duration
	for _, procs := range []int{1, 1, max(runtime.NumCPU(), 4)} {
		runtime.GOMAXPROCS(procs)
		got, _ := slidingGets(t, 4, 4000)
		if want == 0 {
			want = got
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d: makespan %d vns, first run %d vns", procs, got, want)
		}
	}
}

// A wait harvests at most half a window, so the window slides. Swept a
// whole window at a time, 4 KB replies (landing copy as long as the gap
// between arrivals) pin the pipe to fill-and-drain: 15.5 vµs mean. With
// replies held to the end of the server's CQ sweep it read 13.45.
func TestPipelineWindowSlides(t *testing.T) {
	if _, mean := slidingGets(t, 4, 4000); mean > 10100 {
		t.Errorf("window-4 4 KB GET mean latency %.2f vµs, want ≤ 10.1: the pipe is batch-synchronized", mean.Micros())
	}
}

// A reply leaves when its handler has built it. At window 2 the only
// other request in flight reaches the server after the reply is posted,
// so a GET takes what a blocking one does (8.93 vµs); a reply parked
// behind the next request's harvest, OpCost and pack copy reads 10.08.
func TestReplyNotHeldBehindNextRequest(t *testing.T) {
	if _, mean := slidingGets(t, 2, 4000); mean > 9000 {
		t.Errorf("window-2 4 KB GET mean latency %.2f vµs, want ≤ 9.0: a reply waits for the request behind it", mean.Micros())
	}
}

// The server's live counters are read through the executor, between a
// worker's steps: race-free while goroutine clients are being served
// (meaningful under -race).
func TestLiveServerCountersRaceFree(t *testing.T) {
	d := New(ClusterB(), Options{UseSRQ: true})
	defer d.Close()
	const clients, ops = 4, 400
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer c.Close()
			pipe := c.MC.Transport(0).(mcclient.Pipeliner).Pipeline(8)
			for i := 0; i < ops; i++ {
				pipe.StartSet(c.Clock, fmt.Sprintf("live-%d-%d", g, i%8), 0, 0, []byte("value"))
			}
			if err := pipe.Wait(c.Clock); err != nil {
				t.Errorf("client %d: %v", g, err)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var drains, demux uint64
	var clock simnet.Time
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		dr, dm := d.Server.UCRBatchedDrains(), d.Server.UCRSRQDemux()
		if dr < drains || dm < demux {
			t.Fatalf("live counters went backwards: drains %d→%d, demux %d→%d", drains, dr, demux, dm)
		}
		drains, demux = dr, dm
		for _, now := range d.Server.WorkerClocks() {
			clock = simnet.MaxTime(clock, now)
		}
		d.Server.UCRRecvBufferBytes()
	}
	if drains == 0 || demux < clients*ops || clock == 0 {
		t.Errorf("counters after the run: drains %d, demux %d, clock %v", drains, demux, clock)
	}
}

// Closing a server with operations in flight fails or completes every
// one of them: no caller is left parked, on either kind of transport.
func TestCloseWithOpsInFlight(t *testing.T) {
	d := New(ClusterB(), Options{})
	behav := mcclient.DefaultBehaviors()
	behav.OpTimeout = simnet.Second
	const clients = 4
	started := make(chan struct{}, clients)
	var wg sync.WaitGroup
	failed := make([]int, clients)
	for g := 0; g < clients; g++ {
		tr := UCRIB
		if g%2 == 1 {
			tr = IPoIB
		}
		c, err := d.NewClient(tr, behav)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer c.Close()
			for i := 0; failed[g] < 3; i++ {
				if i == 50 {
					started <- struct{}{}
				}
				if err := c.MC.Set(fmt.Sprintf("inflight-%d", g), []byte("v"), 0, 0); err != nil {
					failed[g]++
				}
			}
		}(g)
	}
	for g := 0; g < clients; g++ {
		<-started
	}
	d.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a client is still waiting on a closed server")
	}
}
