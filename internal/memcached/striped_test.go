package memcached

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simnet"
)

// TestStripesRounding: the modelled stripe count rounds up to a power
// of two, and zero keeps the global lock. The count sizes only the
// contention model: the store holds one engine whatever it is.
func TestStripesRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		s := NewStore(StoreConfig{Stripes: tc.in})
		if got := len(s.stripes); got != tc.want {
			t.Errorf("Stripes=%d: %d stripes, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStripedStatsAggregate: the store's one counter set counts every
// op whichever stripe its key books, and the stripe picker spreads keys
// over all eight stripes.
func TestStripedStatsAggregate(t *testing.T) {
	s := NewStore(StoreConfig{Stripes: 8})
	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if res := s.Set(key, 0, 0, []byte("v"), 0); res != Stored {
			t.Fatalf("set %s: %v", key, res)
		}
	}
	hits, misses := 0, 0
	for i := 0; i < n*2; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, _, _, ok := s.Get(key, 0); ok {
			hits++
		} else {
			misses++
		}
	}
	st := s.Stats()
	if st.CurrItems != n {
		t.Errorf("CurrItems = %d, want %d", st.CurrItems, n)
	}
	if st.GetHits != uint64(hits) || st.GetMisses != uint64(misses) {
		t.Errorf("hits/misses = %d/%d, want %d/%d", st.GetHits, st.GetMisses, hits, misses)
	}
	if st.CmdSet != n {
		t.Errorf("CmdSet = %d, want %d", st.CmdSet, n)
	}
	// The keys must actually spread: with 200 keys on 8 stripes an
	// idle stripe would mean the picker is broken (Fibonacci spread).
	perStripe := make(map[*simnet.Resource]int)
	for i := 0; i < n; i++ {
		perStripe[s.stripeOf(hashKey(fmt.Sprintf("key-%d", i)))]++
	}
	if len(perStripe) != 8 {
		t.Errorf("200 keys landed on %d of 8 stripes", len(perStripe))
	}
}

// TestLockWaitQueueing: ops on one key queue behind each other in
// virtual time; ops on keys of different stripes do not interact.
func TestLockWaitQueueing(t *testing.T) {
	s := NewStore(StoreConfig{Stripes: 8})
	const hold = 100 * simnet.Microsecond
	s.opCost = hold
	// waitFor is the queueing wait a charge taken at `at` adds to its
	// clock.
	waitFor := func(key string, at simnet.Time) simnet.Duration {
		clk := simnet.NewVClock(at)
		s.chargeLock([]byte(key), chargeAfter(clk, at))
		return clk.Now() - at
	}
	if w := waitFor("a", 0); w != 0 {
		t.Errorf("first acquire waited %v", w)
	}
	if w := waitFor("a", 0); w != hold {
		t.Errorf("second acquire waited %v, want %v", w, hold)
	}
	// A key on a different stripe sees an idle resource.
	other := ""
	stripeA := s.stripeOf(hashKey("a"))
	for i := 0; ; i++ {
		k := fmt.Sprintf("other-%d", i)
		if s.stripeOf(hashKey(k)) != stripeA {
			other = k
			break
		}
	}
	if w := waitFor(other, 0); w != 0 {
		t.Errorf("different stripe waited %v", w)
	}
	// Same stripe, later arrival: waits only for the remaining backlog.
	if w := waitFor("a", simnet.Time(hold)); w != hold {
		t.Errorf("backlogged acquire waited %v, want %v", w, hold)
	}
	busy, uses := s.LockStats()
	if uses != 4 || busy != 4*hold {
		t.Errorf("LockStats = (%v, %d), want (%v, 4)", busy, uses, 4*hold)
	}
}

// interleave runs streams of ops from one goroutine, as racing workers
// would reach one owned store: every round each stream takes its next
// op (op(g, i) is stream g's op i), in an order a seeded draw shuffles,
// so the streams interleave and the run is still a function of seed.
func interleave(seed int64, streams, opsEach int, op func(g, i int)) {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, streams)
	for g := range order {
		order[g] = g
	}
	for i := 0; i < opsEach; i++ {
		rng.Shuffle(streams, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, g := range order {
			op(g, i)
		}
	}
}

// TestStripedStoreConcurrentStress interleaves twelve workers' mixes of
// every mutating op, over keys of all eight stripes, on one store whose
// stripe locks are booked between them; the invariants checked at the
// end catch lost counter updates, unreadable items and leaked pins.
func TestStripedStoreConcurrentStress(t *testing.T) {
	s := NewStore(StoreConfig{Stripes: 8, MemoryLimit: 8 << 20})
	s.opCost = simnet.Microsecond // books case 7's charges; At ops stay free
	const (
		workers  = 12
		opsEach  = 400
		keySpace = 64
	)
	sets := make([]uint64, workers) // per-worker cmd_set-bumping calls
	now := make([]simnet.Time, workers)
	for g := range now {
		now[g] = simnet.Time(g)
	}
	interleave(1, workers, opsEach, func(g, i int) {
		key := fmt.Sprintf("k-%d", (g*opsEach+i)%keySpace)
		now[g]++
		now := now[g]
		switch (i + g) % 8 { // workers in different phases each round
		case 0:
			s.Set(key, uint32(g), 0, []byte("value"), now)
			sets[g]++
		case 1:
			if it, ok := s.getPinned([]byte(key), at(now)); ok {
				_ = it.value()
				s.unpin(it)
			}
		case 2:
			_, _, _, _ = s.Get(key, now)
		case 3:
			if _, _, cas, ok := s.Get(key, now); ok {
				s.store(StoreOpCas, []byte(key), 0, 0, []byte("casval"), cas, at(now))
				sets[g]++
			}
		case 4:
			s.Set(key, 0, 0, []byte("7"), now)
			s.incrDecr([]byte(key), 3, true, at(now))
			sets[g]++
		case 5:
			s.delete([]byte(key), at(now))
		case 6:
			s.store(StoreOpAppend, []byte(key), 0, 0, []byte("+tail"), 0, at(now))
			sets[g]++
		case 7:
			// Book the virtual-time lock between other workers' ops.
			s.chargeLock([]byte(key), chargeAfter(simnet.NewVClock(now), now))
			if i == 7 && g == 0 {
				s.FlushAll(now)
			}
		}
	})

	st := s.Stats()
	want := uint64(0)
	for _, n := range sets {
		want += n
	}
	if st.CmdSet != want {
		t.Errorf("CmdSet = %d, want %d (dropped counter updates)", st.CmdSet, want)
	}
	// Every surviving item must still be readable and intact.
	live := uint64(0)
	for i := 0; i < keySpace; i++ {
		if v, _, _, ok := s.Get(fmt.Sprintf("k-%d", i), 1<<40); ok {
			live++
			if len(v) == 0 {
				t.Errorf("k-%d: empty value", i)
			}
		}
	}
	if n := s.Stats().CurrItems; live != n {
		t.Errorf("readable items %d != CurrItems %d", live, n)
	}
	// Flush invalidation is lazy; touching every key afterwards must
	// reclaim everything, proving no pin leaked from the stress run.
	s.FlushAll(1 << 41)
	for i := 0; i < keySpace; i++ {
		if _, _, _, ok := s.Get(fmt.Sprintf("k-%d", i), 1<<42); ok {
			t.Errorf("k-%d survived flush_all", i)
		}
	}
	if got := s.Stats().CurrItems; got != 0 {
		t.Errorf("CurrItems after flush = %d, want 0", got)
	}
	// Arena pages are retained, but no live item bytes may remain.
	if b := s.Stats().Bytes; b != 0 {
		t.Errorf("%d live item bytes after flush", b)
	}
}

// TestEvictionFollowsClassLRUAcrossStripes: the stripes model lock
// waits, not ownership, so a store under memory pressure evicts its
// class's least-recently-used item even when that item's key books
// another stripe than the key being stored.
func TestEvictionFollowsClassLRUAcrossStripes(t *testing.T) {
	s := NewStore(StoreConfig{Stripes: 8, MemoryLimit: 2 << 20}) // two pages
	val := bytes.Repeat([]byte("x"), 8000)
	if s.Set("oldest", 0, 0, val, 0) != Stored {
		t.Fatal("set oldest failed")
	}
	// Fill the class with keys off oldest's stripe until the first
	// eviction, so every store that can evict books another stripe.
	own := s.stripeOf(hashKey("oldest"))
	var fill []string
	for i := 0; s.Stats().Evictions == 0; i++ {
		key := fmt.Sprintf("k%d", i)
		if s.stripeOf(hashKey(key)) == own {
			continue
		}
		if res := s.Set(key, 0, 0, val, 0); res != Stored {
			t.Fatalf("set %s = %v", key, res)
		}
		fill = append(fill, key)
		if i > 10000 {
			t.Fatal("never evicted")
		}
	}
	if n := s.Stats().Evictions; n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	if _, _, _, ok := s.Get("oldest", 0); ok {
		t.Error("the class's LRU item survived: eviction stayed on the storing key's stripe")
	}
	for _, key := range fill {
		if _, _, _, ok := s.Get(key, 0); !ok {
			t.Errorf("%s evicted before the class's LRU item", key)
		}
	}
}
