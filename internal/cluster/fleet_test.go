package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/simnet"
)

func newTestFleet(t *testing.T, tr Transport, servers int) *Fleet {
	t.Helper()
	return newReplicatedFleet(t, tr, servers, 2, mcclient.Behaviors{})
}

func newReplicatedFleet(t *testing.T, tr Transport, servers, replicas int, b mcclient.Behaviors) *Fleet {
	t.Helper()
	f, err := NewFleet(ClusterB(), FleetOptions{
		Transport: tr,
		Servers:   servers,
		Replicas:  replicas,
		Behaviors: b,
		Opts:      Options{ServerWorkers: 2, Stripes: 4, MemoryLimit: 32 << 20},
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	return f
}

// R=2 write-through: both owners hold every set; a graceful primary
// departure leaves the replica serving; a join taking over the primary
// arc gets read-repaired on the first fallthrough.
func TestFleetReplicationAndRepair(t *testing.T) {
	f := newTestFleet(t, UCRIB, 4)
	defer f.Close()
	fc, err := f.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("rep-key-%d", i)
		if err := fc.Set(keys[i], []byte("v-"+keys[i]), 0, 0); err != nil {
			t.Fatalf("Set %s: %v", keys[i], err)
		}
	}
	// Both owners hold every key.
	for _, k := range keys {
		owners := f.Owners(k)
		if len(owners) != 2 {
			t.Fatalf("Owners(%s) = %v", k, owners)
		}
		for _, o := range owners {
			v, hit, err := fc.DirectGet(o, k)
			if err != nil || !hit || string(v) != "v-"+k {
				t.Fatalf("owner %s of %s: v=%q hit=%v err=%v", o, k, v, hit, err)
			}
		}
	}

	// Graceful leave of one key's primary: the replica answers.
	victimKey := keys[0]
	before := f.Owners(victimKey)
	if !f.Leave(before[0]) {
		t.Fatalf("Leave(%s) found nothing", before[0])
	}
	v, _, err := fc.Get(victimKey)
	if err != nil || string(v) != "v-"+victimKey {
		t.Fatalf("get after primary leave: v=%q err=%v", v, err)
	}
	// No fallthrough needed: the old replica is the new primary and
	// already holds the key from the write-through — that's the R=2
	// design working, not a gap in the test.
	if fc.Stats.Fallthroughs != 0 {
		t.Fatalf("unexpected fallthroughs after graceful leave: %d", fc.Stats.Fallthroughs)
	}

	// Join: a fresh server takes over some arcs; keys whose primary
	// moved miss on it, fall through to the old primary (now successor),
	// and get repaired.
	pre := f.RingSnapshot()
	joined := f.Join()
	post := f.RingSnapshot()
	if frac := post.MovedFraction(pre); frac <= 0 {
		t.Fatalf("join moved no keyspace (%v)", frac)
	}
	repairsBefore := fc.Stats.Repairs
	var movedKey string
	for _, k := range keys[1:] {
		if f.Owners(k)[0] == joined {
			movedKey = k
			break
		}
	}
	if movedKey == "" {
		t.Skip("no test key landed on the joiner (layout-dependent); movement verified by arc fraction")
	}
	v, _, err = fc.Get(movedKey)
	if err != nil || string(v) != "v-"+movedKey {
		t.Fatalf("get of moved key: v=%q err=%v", v, err)
	}
	if fc.Stats.Repairs != repairsBefore+1 {
		t.Fatalf("expected one read repair, repairs %d → %d", repairsBefore, fc.Stats.Repairs)
	}
	// The repair landed: the joiner now holds the key.
	if v, hit, err := fc.DirectGet(joined, movedKey); err != nil || !hit || string(v) != "v-"+movedKey {
		t.Fatalf("joiner after repair: v=%q hit=%v err=%v", v, hit, err)
	}
}

// A crash mid-pipelined-burst during a rebalance must settle every
// future — a served value or a clean ErrServerDown, nothing hangs — and
// the replica (the post-crash primary) must then serve every key.
func TestFleetCrashMidBurst(t *testing.T) {
	f := newTestFleet(t, UCRIB, 4)
	defer f.Close()
	fc, err := f.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Find a batch of keys sharing one primary so a single pipelined
	// window covers them all.
	victim := f.Members()[0]
	var keys []string
	for i := 0; len(keys) < 8 && i < 4096; i++ {
		k := fmt.Sprintf("burst-key-%d", i)
		if f.Owners(k)[0] == victim {
			keys = append(keys, k)
		}
	}
	if len(keys) < 8 {
		t.Fatalf("could not find 8 keys owned by %s", victim)
	}
	for _, k := range keys {
		if err := fc.Set(k, []byte("v-"+k), 0, 0); err != nil {
			t.Fatalf("warm %s: %v", k, err)
		}
	}

	// Open a pipelined window against the primary, then crash it with
	// the burst outstanding.
	tr, err := fc.conn(victim)
	if err != nil {
		t.Fatal(err)
	}
	pl := tr.(mcclient.Pipeliner).Pipeline(len(keys))
	futs := make([]*mcclient.GetFuture, len(keys))
	for i, k := range keys {
		futs[i] = pl.StartGet(fc.Clock, k)
	}
	if !f.Crash(victim) {
		t.Fatalf("Crash(%s) found nothing", victim)
	}
	_ = pl.Wait(fc.Clock) // must return, not hang
	for i, fu := range futs {
		v, _, _, ok, err := fu.Wait(fc.Clock)
		switch {
		case err == nil && ok && string(v) == "v-"+keys[i]:
		case err == mcclient.ErrServerDown:
		case err == nil && !ok:
			// Served before the store vanished underneath: treat like a
			// down primary; the fallthrough below recovers it.
		default:
			t.Fatalf("future %d: v=%q ok=%v err=%v", i, v, ok, err)
		}
	}
	fc.dropConn(victim)
	// The client set no OpTimeout, so the dead waits had no deadline to
	// run to: the failure is learned where the clock stood, not 2^50 ns
	// (13 virtual days) later, and later makespans and TTLs stay sane.
	if now := fc.Clock.Now(); now >= simnet.Second {
		t.Fatalf("client clock at %v after the failed burst: an untimed wait threw it forward", now)
	}

	// Rebalance happened atomically with the crash: every key's new
	// primary is the old replica and serves the value.
	for _, k := range keys {
		if f.Owners(k)[0] == victim {
			t.Fatalf("crashed server still owns %s", k)
		}
		v, _, err := fc.Get(k)
		if err != nil || string(v) != "v-"+k {
			t.Fatalf("get %s after crash: v=%q err=%v", k, v, err)
		}
	}
}

// GetBurst's own mid-flight behavior: results align with keys and every
// entry is value-or-clean-error even when churn lands between bursts.
func TestFleetGetBurst(t *testing.T) {
	f := newTestFleet(t, UCRIB, 4)
	defer f.Close()
	fc, err := f.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	var keys []string
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("gb-key-%d", i)
		keys = append(keys, k)
		if err := fc.Set(k, []byte("v-"+k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := fc.GetBurst(keys, 8)
	for i, r := range res {
		if r.Err != nil || !r.Hit || string(r.value) != "v-"+keys[i] {
			t.Fatalf("burst[%d]: %+v", i, r)
		}
	}
	// Leave one server; the burst still answers everything (replica
	// fallthrough + repair for moved keys).
	f.Leave(f.Members()[0])
	res = fc.GetBurst(keys, 8)
	for i, r := range res {
		if r.Err != nil || !r.Hit || string(r.value) != "v-"+keys[i] {
			t.Fatalf("post-leave burst[%d]: %+v", i, r)
		}
	}
}

// Race stress: concurrent churn (join, leave, crash) against live
// traffic on both transports. Every op must settle with a value or a
// tolerated error; run under -race this also proves the fleet's locking
// story (ring swaps, Deployment.addServer mid-traffic, lazy dials racing
// partitions).
func TestFleetChurnRaceStress(t *testing.T) {
	for _, tr := range []Transport{UCRIB, IPoIB} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			f, err := NewFleet(ClusterB(), FleetOptions{
				Transport: tr,
				Servers:   5,
				Behaviors: mcclient.Behaviors{
					// Bounded ops even when a partition eats a request
					// that the RC retry budget alone would not settle
					// quickly: churn makes ErrServerDown a tolerated
					// outcome here, unlike the clean single-server suites.
					OpTimeout: 20 * simnet.Millisecond,
					Retries:   1,
				},
				Opts: Options{ServerWorkers: 2, Stripes: 4, MemoryLimit: 32 << 20},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			const clients = 6
			const opsPerClient = 40
			var ok64, down64 uint64
			var wg sync.WaitGroup
			for ci := 0; ci < clients; ci++ {
				fc, err := f.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ci int, fc *FleetClient) {
					defer wg.Done()
					defer fc.Close()
					for op := 0; op < opsPerClient; op++ {
						k := fmt.Sprintf("rs-%d-%d", ci, op%7)
						v := []byte(fmt.Sprintf("v-%d-%d", ci, op))
						if err := fc.Set(k, v, 0, 0); err != nil {
							if err != mcclient.ErrServerDown {
								t.Errorf("client %d set: %v", ci, err)
								return
							}
							atomic.AddUint64(&down64, 1)
							continue
						}
						got, _, err := fc.Get(k)
						switch err {
						case nil:
							// A concurrent crash can strand the freshest
							// write on the dead primary, so an older value
							// of OUR OWN key is acceptable; foreign data is
							// not.
							if len(got) < 3 || string(got[:2]) != "v-" {
								t.Errorf("client %d got foreign value %q for %s", ci, got, k)
								return
							}
							atomic.AddUint64(&ok64, 1)
						case mcclient.ErrServerDown, mcclient.ErrCacheMiss:
							atomic.AddUint64(&down64, 1)
						default:
							t.Errorf("client %d get: %v", ci, err)
							return
						}
					}
				}(ci, fc)
			}

			// Churn driver: joins, graceful leaves, and crashes while the
			// traffic runs.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					switch round % 3 {
					case 0:
						f.Join()
					case 1:
						if ms := f.Members(); len(ms) > 3 {
							f.Leave(ms[round%len(ms)])
						}
					case 2:
						if ms := f.Members(); len(ms) > 3 {
							f.Crash(ms[round%len(ms)])
						}
					}
				}
			}()
			wg.Wait()

			if ok64 == 0 {
				t.Fatal("no operation succeeded under churn")
			}
			joins, leaves, crashes := f.ChurnCounts()
			if joins == 0 || leaves+crashes == 0 {
				t.Fatalf("churn did not run: joins=%d leaves=%d crashes=%d", joins, leaves, crashes)
			}
			t.Logf("%s: ok=%d tolerated=%d joins=%d leaves=%d crashes=%d",
				tr, ok64, down64, joins, leaves, crashes)
		})
	}
}

// TestFleetClientArmsReadPaths: a fleet client's lazy per-owner dial is
// Deployment.dial, so the read paths FleetOptions.Opts arms are armed on
// every connection it opens — one-sided reads and write replies serve
// 4 KB hits, UD datagrams serve small ones — and a refused option is
// refused loudly. (The parent's fleet dial published the server
// directory and then answered every GET over plain AM.)
func TestFleetClientArmsReadPaths(t *testing.T) {
	run := func(t *testing.T, opts Options, size int) mcclient.PathStats {
		t.Helper()
		opts.ServerWorkers, opts.Stripes, opts.MemoryLimit = 2, 4, 32<<20
		f, err := NewFleet(ClusterB(), FleetOptions{Servers: 4, Opts: opts})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		defer f.Close()
		fc, err := f.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		val := make([]byte, size)
		for i := range val {
			val[i] = byte(i)
		}
		const keys = 64
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("arm-%d", i)
				if pass == 0 {
					if err := fc.Set(k, val, 0, 0); err != nil {
						t.Fatalf("Set %s: %v", k, err)
					}
				}
				got, _, err := fc.Get(k)
				if err != nil || string(got) != string(val) {
					t.Fatalf("Get %s: %d bytes, err=%v", k, len(got), err)
				}
			}
		}
		var sum mcclient.PathStats
		for _, tr := range fc.conns {
			sum.Add(tr.(*mcclient.UCRTransport).PathStats())
		}
		if fc.Stats.PrimaryHits != 4*keys {
			t.Fatalf("primary hits = %d, want %d", fc.Stats.PrimaryHits, 4*keys)
		}
		return sum
	}
	for _, tc := range []struct {
		name string
		opts Options
		size int
		path mcclient.ReadPath
	}{
		{"onesided", Options{OneSidedGet: true}, 4096, mcclient.PathOneSided},
		{"wrreply", Options{WriteReplies: true}, 4096, mcclient.PathWrite},
		{"ud", Options{UDGets: true}, 64, mcclient.PathUD},
		// Composed, as ISSUE 21 measured it: 256 of 256 over plain AM.
		{"all", Options{OneSidedGet: true, WriteReplies: true, UDGets: true}, 4096, mcclient.PathOneSided},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := run(t, tc.opts, tc.size)
			if s.By[tc.path].Hits == 0 || s.By[mcclient.PathAM].Hits >= 4*64 {
				t.Fatalf("armed path never served a hit: %+v", s.By)
			}
		})
	}
	t.Run("sessions refused", func(t *testing.T) {
		if _, err := NewFleet(ClusterB(), FleetOptions{Opts: Options{SessionsPerQP: 4}}); err == nil {
			t.Fatal("NewFleet accepted SessionsPerQP, which a fleet client cannot honour")
		}
	})
}

// A fleet client resolves a key's owners, their connections and their
// outcomes into buffers it owns: a routed Set or Delete allocates nothing,
// at R=2 and at R=3, and a routed Get only the value it returns.
func TestFleetClientOwnersZeroAlloc(t *testing.T) {
	keys := make([]string, 16)
	value := make([]byte, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%d", i)
	}
	// warm dials the owners, then overwrites until the servers' item free
	// lists and the simulator's booking lists have stopped growing.
	warm := func(t *testing.T, replicas int) *FleetClient {
		t.Helper()
		f := newReplicatedFleet(t, UCRIB, 4, replicas, mcclient.Behaviors{})
		t.Cleanup(f.Close)
		fc, err := f.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fc.Close)
		for round := 0; round < 8; round++ {
			for _, k := range keys {
				if err := fc.Set(k, value, 0, 0); err != nil {
					t.Fatalf("Set %s: %v", k, err)
				}
			}
		}
		return fc
	}
	i := 0
	next := func() string { i++; return keys[i%len(keys)] }
	set := func(fc *FleetClient) func() {
		return func() {
			if err := fc.Set(next(), value, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	fc := warm(t, 2)
	if n := testing.AllocsPerRun(100, func() { fc.owners(next()) }); n != 0 {
		t.Errorf("owners: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, set(fc)); n != 0 {
		t.Errorf("Set: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := fc.Get(next()); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Get: %v allocs/op, want 1 (the returned value)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fc.Delete(next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Delete: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, set(warm(t, 3))); n != 0 {
		t.Errorf("Set at R=3: %v allocs/op, want 0", n)
	}
}

// A replicated write posts to every owner before it waits on any, so it
// costs one round trip, not R: a Set or Delete at R=2 and R=3 takes at
// most 1.3× a primary-hit Get of the same value (the sequential
// write-through took ≈ R×), on both transports, and every owner holds
// the write afterwards. With the primary cut off, the replicas are
// written while the primary's request is still waiting, and the call
// returns ErrServerDown after exactly 1 + Retries attempts on it.
func TestFleetWriteThroughOneRoundTrip(t *testing.T) {
	const backoff = 10 * simnet.Second // ≫ one attempt on a dead server
	val := make([]byte, 256)
	for _, tr := range []Transport{UCRIB, IPoIB} {
		for _, replicas := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/R=%d", tr, replicas), func(t *testing.T) {
				f := newReplicatedFleet(t, tr, 4, replicas, mcclient.Behaviors{Retries: 2, RetryBackoff: backoff})
				defer f.Close()
				fc, err := f.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				defer fc.Close()
				timed := func(op func() error) simnet.Duration {
					t.Helper()
					t0 := fc.Clock.Now()
					if err := op(); err != nil {
						t.Fatal(err)
					}
					return fc.Clock.Now() - t0
				}
				set := func(k string) func() error { return func() error { return fc.Set(k, val, 0, 0) } }
				holds := func(k string, want bool) {
					t.Helper()
					for _, o := range f.Owners(k) {
						if _, hit, err := fc.DirectGet(o, k); err != nil || hit != want {
							t.Fatalf("owner %s of %s: hit=%v err=%v, want hit=%v", o, k, hit, err, want)
						}
					}
				}

				// Dial every owner of both keys and warm the paths.
				for _, k := range []string{"wt-a", "wt-b", "wt-a", "wt-b"} {
					timed(set(k))
					timed(func() error { _, _, err := fc.Get(k); return err })
				}
				hits := fc.Stats.PrimaryHits
				get := timed(func() error { _, _, err := fc.Get("wt-a"); return err })
				if fc.Stats.PrimaryHits != hits+1 {
					t.Fatal("reference Get was not a primary hit")
				}
				limit := get * 13 / 10
				if d := timed(set("wt-a")); d > limit {
					t.Errorf("Set at R=%d took %v, more than 1.3× a Get's %v", replicas, d, get)
				}
				holds("wt-a", true)
				var found bool
				if d := timed(func() (err error) { found, err = fc.Delete("wt-a"); return err }); d > limit {
					t.Errorf("Delete at R=%d took %v, more than 1.3× a Get's %v", replicas, d, get)
				}
				if !found {
					t.Error("Delete found nothing")
				}
				holds("wt-a", false)

				// Cut the primary of wt-b off, leaving it on the ring: a
				// crash the client has not learned about yet. Two retries
				// back off b, then 2b, so the time a write spends past its
				// first attempt names how many ran (one retry: b, three: 7b).
				owners := f.Owners("wt-b")
				for _, fi := range f.D.injectors {
					idx, _ := f.member(owners[0])
					fi.Partition(fc.seat.node, f.D.ServerNodes[idx])
				}
				const budget = backoff + 2*backoff
				for i, w := range []struct {
					name string
					op   func() error
					want bool // the replicas hold wt-b afterwards
				}{
					{"Set", func() error { return fc.Set("wt-b", []byte("new"), 0, 0) }, true},
					{"Delete", func() error { _, err := fc.Delete("wt-b"); return err }, false},
				} {
					t0 := fc.Clock.Now()
					if err := w.op(); !errors.Is(err, mcclient.ErrServerDown) {
						t.Fatalf("%s with a dead primary: %v, want ErrServerDown", w.name, err)
					}
					if d := fc.Clock.Now() - t0; d < budget || d >= budget+backoff {
						t.Errorf("%s with a dead primary took %v: want 3 attempts on it, %v of backoff plus under %v", w.name, d, budget, backoff)
					}
					for _, o := range owners[1:] {
						idx, _ := f.member(o)
						for _, at := range f.D.Servers[idx].WorkerClocks() {
							if at >= t0+backoff {
								t.Errorf("%s: replica %s served at %v: it waited for the dead primary (write issued at %v)", w.name, o, at, t0)
							}
						}
						if v, hit, err := fc.DirectGet(o, "wt-b"); err != nil || hit != w.want || (hit && string(v) != "new") {
							t.Errorf("%s: replica %s afterwards: %q hit=%v err=%v", w.name, o, v, hit, err)
						}
					}
					if fc.Stats.Downs != uint64(i+1) {
						t.Errorf("%s: Downs = %d, want %d", w.name, fc.Stats.Downs, i+1)
					}
				}
			})
		}
	}
}

// A Set the servers refuse is an error, as mcclient.Client.Set reports
// it: a 2 MB value is larger than any slab, every owner answers
// TooLarge, and the fleet Set returns ErrServerError instead of nil.
func TestFleetSetReportsRefusedStore(t *testing.T) {
	for _, tr := range []Transport{UCRIB, IPoIB} {
		t.Run(string(tr), func(t *testing.T) {
			f := newTestFleet(t, tr, 4)
			defer f.Close()
			fc, err := f.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			err = fc.Set("huge", make([]byte, 2<<20), 0, 0)
			if !errors.Is(err, mcclient.ErrServerError) {
				t.Fatalf("Set of 2 MB: %v, want ErrServerError", err)
			}
			if _, _, err := fc.Get("huge"); !errors.Is(err, mcclient.ErrCacheMiss) {
				t.Fatalf("Get after the refused Set: %v, want a miss", err)
			}
			if err := fc.Set("small", []byte("v"), 0, 0); err != nil {
				t.Fatalf("Set after the refused one: %v", err)
			}
		})
	}
}

// A key the protocol cannot carry is refused with ErrBadKey before any
// owner is touched — no connection is even dialed — so the next op on
// the same owners succeeds (over IPoIB the parent sent "a b" as is, the
// server answered ERROR, and the stream desynced).
func TestFleetRejectsBadKey(t *testing.T) {
	const bad = "a b"
	for _, tr := range []Transport{UCRIB, IPoIB} {
		t.Run(string(tr), func(t *testing.T) {
			f := newTestFleet(t, tr, 2) // R=2 over 2 servers: every key has the same owners
			defer f.Close()
			fc, err := f.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			if err := fc.Set(bad, []byte("v"), 0, 0); !errors.Is(err, mcclient.ErrBadKey) {
				t.Errorf("Set: %v", err)
			}
			if _, _, err := fc.Get(bad); !errors.Is(err, mcclient.ErrBadKey) {
				t.Errorf("Get: %v", err)
			}
			if _, err := fc.Delete(bad); !errors.Is(err, mcclient.ErrBadKey) {
				t.Errorf("Delete: %v", err)
			}
			if r := fc.GetBurst([]string{bad}, 4); !errors.Is(r[0].Err, mcclient.ErrBadKey) {
				t.Errorf("GetBurst: %+v", r[0])
			}
			if len(fc.conns) != 0 || fc.Stats.Ops != 0 {
				t.Fatalf("a refused key reached the fleet: %d conns, %d ops", len(fc.conns), fc.Stats.Ops)
			}
			if err := fc.Set("ok-key", []byte("v"), 0, 0); err != nil {
				t.Fatalf("Set after the bad key: %v", err)
			}
			r := fc.GetBurst([]string{"ok-key", bad}, 4)
			if string(r[0].value) != "v" || r[0].Err != nil || !errors.Is(r[1].Err, mcclient.ErrBadKey) {
				t.Fatalf("GetBurst after the bad key: %+v", r)
			}
		})
	}
}
