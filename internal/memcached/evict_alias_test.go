package memcached

import (
	"bytes"
	"strconv"
	"testing"
)

// These tests pin down the append/prepend and incr grow paths under
// eviction pressure: newItemLocked may evict LRU victims while the old
// item's value is still needed as the copy source. Without pinning the
// old item across the allocation, the victim can be the old item itself
// — its chunk is freed, immediately recycled as the new item's chunk,
// and the "copy old value" step then reads the buffer it is writing.

// topClassValueLen returns a value length that, with a 2-byte key, lands
// in the arena's largest (1 MB) class — one chunk per page, so eviction
// pressure is exact: one item per page, no free chunks.
func topClassValueLen(s *Store) int {
	a := s.arena
	sz2 := a.classSize(a.numClasses() - 2)
	// n = keyLen + valueLen + itemOverhead must exceed the second-to-
	// largest class to select the top class.
	return sz2 + 1 - itemOverhead - 2
}

// patternValue builds a value whose bytes vary with position, so a
// shifted or self-overwritten copy is detectable.
func patternValue(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// TestPrependEvictionAliasing fills a two-page arena with two top-class
// items and prepends to the LRU-tail one. The grown copy needs a fresh
// top-class chunk; the only way to get one is eviction. The old item
// must be pinned across that allocation — otherwise it is itself the
// LRU victim, its chunk is recycled as the destination, and the prepend
// writes over its own copy source (on the unfixed code the value comes
// back with the prefix duplicated where the old head bytes should be).
func TestPrependEvictionAliasing(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 2 << 20, MaxItemSize: 1 << 20})
	vlen := topClassValueLen(s)
	oldVal := patternValue(vlen)

	if res := s.Set("aa", 0, 0, oldVal, 0); res != Stored {
		t.Fatalf("Set aa = %s", res)
	}
	if res := s.Set("bb", 0, 0, patternValue(vlen), 0); res != Stored {
		t.Fatalf("Set bb = %s", res)
	}
	// LRU within the top class is now head=bb, tail=aa: growing aa must
	// not pick aa itself as the victim.
	if res := s.store(StoreOpPrepend, []byte("aa"), 0, 0, []byte("XYZ"), 0, at(0)); res != Stored {
		t.Fatalf("Prepend = %s", res)
	}

	got, _, _, ok := s.Get("aa", 0)
	if !ok {
		t.Fatal("aa lost after prepend")
	}
	want := append([]byte("XYZ"), oldVal...)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("prepend corrupted value: len %d vs %d, first diff at byte %d (got %q... want %q...)",
			len(got), len(want), i, got[i:min(i+8, len(got))], want[i:min(i+8, len(want))])
	}
	// The pin redirects eviction to the other resident of the class.
	if _, _, _, ok := s.Get("bb", 0); ok {
		t.Fatal("bb should have been the eviction victim")
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

// TestAppendEvictionAliasing is the append-side twin: same single-victim
// geometry, growing the tail item by appending. Byte-identical output
// can mask the aliasing on append (source and destination share their
// starting offset), so this asserts the pin semantics directly: the old
// item must survive as the copy source and the *other* item must be the
// victim.
func TestAppendEvictionAliasing(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 2 << 20, MaxItemSize: 1 << 20})
	vlen := topClassValueLen(s)
	oldVal := patternValue(vlen)

	if res := s.Set("aa", 0, 0, oldVal, 0); res != Stored {
		t.Fatalf("Set aa = %s", res)
	}
	if res := s.Set("bb", 0, 0, patternValue(vlen), 0); res != Stored {
		t.Fatalf("Set bb = %s", res)
	}
	if res := s.store(StoreOpAppend, []byte("aa"), 0, 0, []byte("XYZ"), 0, at(0)); res != Stored {
		t.Fatalf("Append = %s", res)
	}
	got, _, _, ok := s.Get("aa", 0)
	if !ok {
		t.Fatal("aa lost after append")
	}
	if !bytes.Equal(got, append(append([]byte{}, oldVal...), []byte("XYZ")...)) {
		t.Fatal("append corrupted value")
	}
	if _, _, _, ok := s.Get("bb", 0); ok {
		t.Fatal("bb should have been the eviction victim")
	}
}

// TestPrependSinglePageOOM: with a one-page arena the old item is the
// only possible victim, and it is pinned — the grow must fail with OOM
// and leave the original value intact, not cannibalize the item being
// grown (which is what the unfixed code does: it "succeeds" by evicting
// the copy source).
func TestPrependSinglePageOOM(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 1 << 20, MaxItemSize: 1 << 20})
	vlen := topClassValueLen(s)
	oldVal := patternValue(vlen)
	if res := s.Set("aa", 0, 0, oldVal, 0); res != Stored {
		t.Fatalf("Set aa = %s", res)
	}
	if res := s.store(StoreOpPrepend, []byte("aa"), 0, 0, []byte("XYZ"), 0, at(0)); res != OOM {
		t.Fatalf("Prepend in full one-page arena = %s, want %s", res, OOM)
	}
	got, _, _, ok := s.Get("aa", 0)
	if !ok || !bytes.Equal(got, oldVal) {
		t.Fatal("failed prepend must leave the original value intact")
	}
}

// fillSmallClass sets filler items until the class holding n-byte
// allocations has no free chunks (incr values are uint64, so the grow
// path lives in the smallest class — fill that one exactly).
func fillSmallClass(t *testing.T, s *Store, n int) {
	t.Helper()
	a := s.arena
	ci, ok := a.classFor(n)
	if !ok {
		t.Fatalf("no class for %d bytes", n)
	}
	for i := 0; a.freeChunks(ci) > 0; i++ {
		key := "f" + strconv.Itoa(100000+i)
		if res := s.Set(key, 0, 0, []byte("1"), 0); res != Stored {
			t.Fatalf("filler Set %s = %s", key, res)
		}
	}
}

// TestIncrGrowEvictsOtherItem: the incr realloc path under eviction
// pressure. The item being grown is pinned across the allocation, so
// the LRU victim is its oldest neighbour — not the item itself (the
// unfixed code recycles the grown item's own chunk, silently skipping
// the LRU-ordered victim).
func TestIncrGrowEvictsOtherItem(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 1 << 20})
	if res := s.Set("nn", 0, 0, []byte("9"), 0); res != Stored {
		t.Fatal("Set nn failed")
	}
	fillSmallClass(t, s, len("nn")+len("10")+itemOverhead)

	// LRU tail of the class is nn (oldest, never touched since).
	val, found, bad, oom := s.incrDecr([]byte("nn"), 1, true, at(0))
	if val != 10 || !found || bad || oom {
		t.Fatalf("IncrDecr = (%d, found=%v bad=%v oom=%v)", val, found, bad, oom)
	}
	if got, _, _, ok := s.Get("nn", 0); !ok || string(got) != "10" {
		t.Fatalf("nn after grow = %q, %v", got, ok)
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
	// With nn pinned the victim is the second-oldest item, the first
	// filler; without the pin nn itself is evicted and f100000 survives.
	if _, _, _, ok := s.Get("f100000", 0); ok {
		t.Fatal("oldest filler should have been the eviction victim")
	}
}

// TestIncrGrowOOMIsServerError: when the grown value cannot be
// allocated, IncrDecr must report oom (protocol SERVER_ERROR) — a
// server failure — not badValue (CLIENT_ERROR), which blames the
// caller. Evictions are disabled so the full arena cannot make room,
// and the original value must survive the failed grow.
func TestIncrGrowOOMIsServerError(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 1 << 20, DisableEvictions: true})
	if res := s.Set("nn", 0, 0, []byte("9"), 0); res != Stored {
		t.Fatal("Set nn failed")
	}
	fillSmallClass(t, s, len("nn")+len("10")+itemOverhead)

	val, found, bad, oom := s.incrDecr([]byte("nn"), 1, true, at(0))
	if !found || bad || !oom {
		t.Fatalf("IncrDecr = (%d, found=%v bad=%v oom=%v), want oom", val, found, bad, oom)
	}
	if got, _, _, ok := s.Get("nn", 0); !ok || string(got) != "9" {
		t.Fatal("failed incr grow must leave the original value intact")
	}
}
