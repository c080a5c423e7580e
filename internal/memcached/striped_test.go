package memcached

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/simnet"
)

// TestStripesRounding: the stripe count rounds up to a power of two,
// and zero keeps the global-lock engine.
func TestStripesRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		s := NewStore(StoreConfig{Stripes: tc.in})
		if got := len(s.shards); got != tc.want {
			t.Errorf("Stripes=%d: %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStripedStatsAggregate: counters land on whichever shard served
// the op, and Stats() sums them all.
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
	// The keys must actually spread: with 200 keys on 8 shards an empty
	// shard would mean the shard picker is broken (high-bit selection).
	perShard := make(map[*shard]int)
	for i := 0; i < n; i++ {
		perShard[s.shardOf(hashKey(fmt.Sprintf("key-%d", i)))]++
	}
	if len(perShard) != 8 {
		t.Errorf("200 keys landed on %d of 8 shards", len(perShard))
	}
}

// TestLockWaitQueueing: ops on one key queue behind each other in
// virtual time; ops on keys of different shards do not interact.
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
	// A key on a different shard sees an idle resource.
	other := ""
	shA := s.shardOf(hashKey("a"))
	for i := 0; ; i++ {
		k := fmt.Sprintf("other-%d", i)
		if s.shardOf(hashKey(k)) != shA {
			other = k
			break
		}
	}
	if w := waitFor(other, 0); w != 0 {
		t.Errorf("different shard waited %v", w)
	}
	// Same shard, later arrival: waits only for the remaining backlog.
	if w := waitFor("a", simnet.Time(hold)); w != hold {
		t.Errorf("backlogged acquire waited %v, want %v", w, hold)
	}
	busy, uses := s.LockStats()
	if uses != 4 || busy != 4*hold {
		t.Errorf("LockStats = (%v, %d), want (%v, 4)", busy, uses, 4*hold)
	}
}

// TestStripedStoreConcurrentStress hammers one striped store from many
// goroutines mixing every mutating op across shard boundaries. Run
// under -race (make tier2) it is the data-race guard for the striped
// engine; the invariants checked at the end catch lost updates.
func TestStripedStoreConcurrentStress(t *testing.T) {
	s := NewStore(StoreConfig{Stripes: 8, MemoryLimit: 8 << 20})
	s.opCost = simnet.Microsecond // books case 7's charges; At ops stay free
	const (
		goroutines = 12
		opsEach    = 400
		keySpace   = 64
	)
	var wg sync.WaitGroup
	sets := make([]uint64, goroutines) // per-goroutine cmd_set-bumping calls
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := simnet.Time(g)
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k-%d", (g*opsEach+i)%keySpace)
				now += simnet.Duration(1)
				switch i % 8 {
				case 0:
					s.Set(key, uint32(g), 0, []byte("value"), now)
					sets[g]++
				case 1:
					if it, ok := s.getPinned([]byte(key), at(now)); ok {
						_ = it.value
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
					// Exercise the virtual-time lock from racing actors.
					s.chargeLock([]byte(key), chargeAfter(simnet.NewVClock(now), now))
					if i == 7 && g == 0 {
						s.FlushAll(now)
					}
				}
			}
		}(g)
	}
	wg.Wait()

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
