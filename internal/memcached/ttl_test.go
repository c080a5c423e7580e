package memcached

import (
	"testing"

	"repro/internal/simnet"
)

// TTL semantics under virtual time. The protocol exptime is seconds:
// values up to 30 days are relative to the set time, anything larger is
// an absolute unix-style timestamp, and 0 never expires — with the
// expiry boundary itself exclusive (an item is dead AT its expireAt
// tick, alive one nanosecond before).

const daySeconds = 60 * 60 * 24

func ttlStore() *Store {
	return NewStore(StoreConfig{MemoryLimit: 1 << 20, Stripes: 2})
}

func mustHit(t *testing.T, s *Store, key string, now simnet.Time) {
	t.Helper()
	if _, _, _, ok := s.Get(key, now); !ok {
		t.Fatalf("%s: miss at t=%d, want hit", key, int64(now))
	}
}

func mustMiss(t *testing.T, s *Store, key string, now simnet.Time) {
	t.Helper()
	if _, _, _, ok := s.Get(key, now); ok {
		t.Fatalf("%s: hit at t=%d, want miss", key, int64(now))
	}
}

func TestTTLRelativeBoundary(t *testing.T) {
	s := ttlStore()
	setAt := 50 * simnet.Second
	if res := s.Set("k", 0, 100, []byte("v"), setAt); res != Stored {
		t.Fatal(res)
	}
	expireAt := setAt + 100*simnet.Second
	mustHit(t, s, "k", setAt)
	mustHit(t, s, "k", expireAt-1) // one tick before the boundary
	mustMiss(t, s, "k", expireAt)  // dead exactly at expireAt
}

func TestTTLThirtyDayCutover(t *testing.T) {
	s := ttlStore()
	now := 1000 * simnet.Second

	// 2592000 (= 30 days exactly) is still RELATIVE: expiry at set+30d.
	if res := s.Set("rel", 0, 30*daySeconds, []byte("v"), now); res != Stored {
		t.Fatal(res)
	}
	relExpire := now + 30*daySeconds*simnet.Second
	mustHit(t, s, "rel", relExpire-1)
	mustMiss(t, s, "rel", relExpire)

	// 2592001 is one past the cutover: an ABSOLUTE timestamp, so the
	// set time no longer shifts the expiry.
	if res := s.Set("abs", 0, 30*daySeconds+1, []byte("v"), now); res != Stored {
		t.Fatal(res)
	}
	absExpire := (30*daySeconds + 1) * simnet.Second
	mustHit(t, s, "abs", absExpire-1)
	mustMiss(t, s, "abs", absExpire)

	// The same absolute exptime stored at a much later virtual time is
	// born expired.
	if res := s.Set("late", 0, 30*daySeconds+1, []byte("v"), absExpire+simnet.Second); res != Stored {
		t.Fatal(res)
	}
	mustMiss(t, s, "late", absExpire+simnet.Second)
}

func TestTTLZeroNeverExpires(t *testing.T) {
	s := ttlStore()
	if res := s.Set("k", 0, 0, []byte("v"), simnet.Second); res != Stored {
		t.Fatal(res)
	}
	mustHit(t, s, "k", 365*daySeconds*simnet.Second)
}

func TestTTLTouch(t *testing.T) {
	s := ttlStore()
	now := 10 * simnet.Second
	if res := s.Set("k", 0, 100, []byte("v"), now); res != Stored {
		t.Fatal(res)
	}

	// Shorten: the touch time, not the set time, anchors the new expiry.
	touchAt := now + simnet.Second
	if !s.touch([]byte("k"), 5, at(touchAt)) {
		t.Fatal("touch missed")
	}
	newExpire := touchAt + 5*simnet.Second
	mustHit(t, s, "k", newExpire-1)
	mustMiss(t, s, "k", newExpire)

	// Touch on an expired item is a miss and does not resurrect it.
	if s.touch([]byte("k"), 1000, at(newExpire)) {
		t.Fatal("touch resurrected an expired item")
	}
	mustMiss(t, s, "k", newExpire)

	// Touch to 0 clears the expiry entirely.
	if res := s.Set("k2", 0, 100, []byte("v"), now); res != Stored {
		t.Fatal(res)
	}
	if !s.touch([]byte("k2"), 0, at(now)) {
		t.Fatal("touch missed")
	}
	mustHit(t, s, "k2", 365*daySeconds*simnet.Second)
}

func TestTTLFlushHorizon(t *testing.T) {
	s := ttlStore()
	if res := s.Set("old", 0, 0, []byte("v"), 5*simnet.Second); res != Stored {
		t.Fatal(res)
	}
	if res := s.Set("edge", 0, 0, []byte("v"), 10*simnet.Second); res != Stored {
		t.Fatal(res)
	}
	s.FlushAll(10 * simnet.Second)
	// FlushAll(t) kills everything set at or before t (the recorded
	// horizon is t+1, and setAt < horizon dies) — so an item stored at
	// the flush instant itself is flushed, and the first survivor is one
	// tick later.
	mustMiss(t, s, "old", 10*simnet.Second)
	mustMiss(t, s, "edge", 10*simnet.Second)

	if res := s.Set("new", 0, 0, []byte("v"), 10*simnet.Second+1); res != Stored {
		t.Fatal(res)
	}
	mustHit(t, s, "new", 10*simnet.Second+1)
}
