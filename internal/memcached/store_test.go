package memcached

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestSlabClassGeometry(t *testing.T) {
	a := newSlabArena(8<<20, 0)
	if a.numClasses() < 10 {
		t.Fatalf("classes = %d, want a real ladder", a.numClasses())
	}
	if a.classSize(0) != minChunkSize {
		t.Fatalf("first class = %d", a.classSize(0))
	}
	for i := 1; i < a.numClasses(); i++ {
		prev, cur := a.classSize(i-1), a.classSize(i)
		if cur <= prev {
			t.Fatalf("class sizes not increasing: %d then %d", prev, cur)
		}
		if cur%chunkAlign != 0 && cur != slabPageSize {
			t.Fatalf("class %d size %d not aligned", i, cur)
		}
	}
	if a.classSize(a.numClasses()-1) != slabPageSize {
		t.Fatalf("last class = %d, want %d", a.classSize(a.numClasses()-1), slabPageSize)
	}
}

func TestSlabClassFor(t *testing.T) {
	a := newSlabArena(8<<20, 0)
	for _, n := range []int{1, 95, 96, 97, 1000, 100_000, slabPageSize} {
		ci, ok := a.classFor(n)
		if !ok {
			t.Fatalf("ClassFor(%d) not ok", n)
		}
		if a.classSize(ci) < n {
			t.Fatalf("class %d (%d) cannot hold %d", ci, a.classSize(ci), n)
		}
		if ci > 0 && a.classSize(ci-1) >= n {
			t.Fatalf("ClassFor(%d) = %d not minimal", n, ci)
		}
	}
	if _, ok := a.classFor(slabPageSize + 1); ok {
		t.Fatal("oversized request should not fit")
	}
}

func TestSlabAllocFreeReuse(t *testing.T) {
	a := newSlabArena(2<<20, 0)
	c1, err := a.alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.buf) < 100-itemOverhead {
		t.Fatalf("chunk len %d: the modeled header is not made on the host, the rest of 100 B must be", len(c1.buf))
	}
	used := a.usedBytes
	if used != slabPageSize {
		t.Fatalf("used = %d, want one page", used)
	}
	a.free(c1)
	c2, err := a.alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.usedBytes != used {
		t.Fatal("re-alloc grabbed another page despite free chunk")
	}
	_ = c2
}

func TestSlabExhaustion(t *testing.T) {
	a := newSlabArena(1<<20, 0) // exactly one page
	var got int
	for {
		if _, err := a.alloc(1000); err != nil {
			if err != errNoMemory {
				t.Fatalf("err = %v", err)
			}
			break
		}
		got++
	}
	if got == 0 {
		t.Fatal("no chunks allocated before exhaustion")
	}
}

func TestSlabPropertyNoDoubleHandout(t *testing.T) {
	// Property: the arena never hands out the same chunk twice while
	// it is live, across random alloc/free sequences.
	f := func(ops []uint16) bool {
		a := newSlabArena(4<<20, 0)
		type ref struct{ c chunk }
		live := map[*byte]*ref{}
		var order []*byte
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // alloc twice as often as free
				n := int(op%8000) + 1
				c, err := a.alloc(n)
				if err != nil {
					continue
				}
				k := &c.buf[0]
				if _, dup := live[k]; dup {
					return false
				}
				live[k] = &ref{c}
				order = append(order, k)
			} else if len(order) > 0 {
				k := order[len(order)-1]
				order = order[:len(order)-1]
				if r, ok := live[k]; ok {
					a.free(r.c)
					delete(live, k)
				}
			} else {
				n := int(op%8000) + 1
				c, err := a.alloc(n)
				if err != nil {
					continue
				}
				k := &c.buf[0]
				if _, dup := live[k]; dup {
					return false
				}
				live[k] = &ref{c}
				order = append(order, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// keyedItem is an unlinked item holding only key, in a chunk of its
// own, for the hash-table tests.
func keyedItem(key string) *item {
	return &item{chunk: chunk{buf: []byte(key)}, nkey: uint8(len(key))}
}

func TestHashTableBasics(t *testing.T) {
	ht := newHashTable()
	items := make([]*item, 0, 1000)
	for i := 0; i < 1000; i++ {
		it := keyedItem(fmt.Sprintf("key-%d", i))
		ht.put(it, hashKey(it.key()))
		items = append(items, it)
	}
	if ht.count != 1000 {
		t.Fatalf("Len = %d", ht.count)
	}
	if len(ht.primary) <= 1<<hashInitialPower {
		t.Fatal("table never expanded")
	}
	for i, it := range items {
		got := ht.lookup(it.key(), hashKey(it.key()))
		if got != it {
			t.Fatalf("Get(%q) = %v", it.key(), got)
		}
		if i%3 == 0 {
			if del := ht.delete(it.key(), hashKey(it.key())); del != it {
				t.Fatalf("Delete(%q) = %v", it.key(), del)
			}
			if ht.lookup(it.key(), hashKey(it.key())) != nil {
				t.Fatal("deleted key still present")
			}
		}
	}
	if ht.lookup([]byte("absent"), hashKey("absent")) != nil {
		t.Fatal("absent key returned an item")
	}
	if ht.delete([]byte("absent"), hashKey("absent")) != nil {
		t.Fatal("deleting absent key returned an item")
	}
}

func TestHashTableIncrementalExpansion(t *testing.T) {
	ht := newHashTable()
	// Fill past the load factor in one burst; expansion must start.
	n := int(hashLoadFactor*float64(1<<hashInitialPower)) + 2
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		ht.put(keyedItem(k), hashKey(k))
	}
	if ht.old == nil {
		t.Fatal("expansion did not start")
	}
	// Every key remains reachable mid-expansion.
	for i := 0; i < n; i++ {
		if k := fmt.Sprintf("k%d", i); ht.lookup([]byte(k), hashKey(k)) == nil {
			t.Fatalf("k%d lost mid-expansion", i)
		}
	}
	// A few more operations finish the migration.
	for i := 0; ht.old != nil && i < 10000; i++ {
		ht.lookup([]byte("k0"), hashKey("k0"))
	}
	if ht.old != nil {
		t.Fatal("expansion never finished")
	}
}

func TestHashTableModelProperty(t *testing.T) {
	// Property: the table behaves exactly like map[string]*Item under
	// random put/get/delete sequences.
	f := func(ops []uint16) bool {
		ht := newHashTable()
		model := map[string]*item{}
		for _, op := range ops {
			key := "k" + strconv.Itoa(int(op%200))
			switch op % 3 {
			case 0:
				if model[key] == nil {
					it := keyedItem(key)
					ht.put(it, hashKey(key))
					model[key] = it
				}
			case 1:
				if ht.lookup([]byte(key), hashKey(key)) != model[key] {
					return false
				}
			case 2:
				got := ht.delete([]byte(key), hashKey(key))
				if got != model[key] {
					return false
				}
				delete(model, key)
			}
		}
		if ht.count != len(model) {
			return false
		}
		for k, v := range model {
			if ht.lookup([]byte(k), hashKey(k)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newTestStore() *Store {
	return NewStore(StoreConfig{MemoryLimit: 16 << 20})
}

func TestStoreSetGet(t *testing.T) {
	s := newTestStore()
	if res := s.Set("alpha", 7, 0, []byte("value-1"), 0); res != Stored {
		t.Fatalf("Set = %v", res)
	}
	v, flags, cas, ok := s.Get("alpha", 1)
	if !ok || string(v) != "value-1" || flags != 7 || cas == 0 {
		t.Fatalf("Get = (%q, %d, %d, %v)", v, flags, cas, ok)
	}
	if _, _, _, ok := s.Get("missing", 1); ok {
		t.Fatal("missing key hit")
	}
	st := s.Stats()
	if st.CmdGet != 2 || st.GetHits != 1 || st.GetMisses != 1 || st.CmdSet != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreOverwriteUpdatesBytes(t *testing.T) {
	s := newTestStore()
	s.Set("k", 0, 0, bytes.Repeat([]byte("a"), 100), 0)
	s.Set("k", 0, 0, bytes.Repeat([]byte("b"), 10), 0)
	st := s.Stats()
	if st.CurrItems != 1 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
	if st.Bytes != uint64(len("k")+10) {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	v, _, _, _ := s.Get("k", 0)
	if string(v) != "bbbbbbbbbb" {
		t.Fatalf("value = %q", v)
	}
}

func TestStoreAddReplace(t *testing.T) {
	s := newTestStore()
	if res := s.store(StoreOpReplace, []byte("x"), 0, 0, []byte("v"), 0, at(0)); res != NotStored {
		t.Fatalf("Replace absent = %v", res)
	}
	if res := s.store(StoreOpAdd, []byte("x"), 0, 0, []byte("v1"), 0, at(0)); res != Stored {
		t.Fatalf("Add = %v", res)
	}
	if res := s.store(StoreOpAdd, []byte("x"), 0, 0, []byte("v2"), 0, at(0)); res != NotStored {
		t.Fatalf("Add present = %v", res)
	}
	if res := s.store(StoreOpReplace, []byte("x"), 0, 0, []byte("v3"), 0, at(0)); res != Stored {
		t.Fatalf("Replace = %v", res)
	}
	v, _, _, _ := s.Get("x", 0)
	if string(v) != "v3" {
		t.Fatalf("value = %q", v)
	}
}

func TestStoreAppendPrepend(t *testing.T) {
	s := newTestStore()
	if res := s.store(StoreOpAppend, []byte("x"), 0, 0, []byte("!"), 0, at(0)); res != NotStored {
		t.Fatalf("Append absent = %v", res)
	}
	s.Set("x", 3, 0, []byte("mid"), 0)
	if res := s.store(StoreOpAppend, []byte("x"), 0, 0, []byte("-end"), 0, at(0)); res != Stored {
		t.Fatal("Append failed")
	}
	if res := s.store(StoreOpPrepend, []byte("x"), 0, 0, []byte("start-"), 0, at(0)); res != Stored {
		t.Fatal("Prepend failed")
	}
	v, flags, _, _ := s.Get("x", 0)
	if string(v) != "start-mid-end" || flags != 3 {
		t.Fatalf("value = %q flags=%d", v, flags)
	}
}

func TestStoreCAS(t *testing.T) {
	s := newTestStore()
	s.Set("x", 0, 0, []byte("v1"), 0)
	_, _, cas, _ := s.Get("x", 0)
	if res := s.store(StoreOpCas, []byte("x"), 0, 0, []byte("v2"), cas, at(0)); res != Stored {
		t.Fatalf("Cas fresh = %v", res)
	}
	// The old CAS id is now stale.
	if res := s.store(StoreOpCas, []byte("x"), 0, 0, []byte("v3"), cas, at(0)); res != Exists {
		t.Fatalf("Cas stale = %v", res)
	}
	if res := s.store(StoreOpCas, []byte("nope"), 0, 0, []byte("v"), 1, at(0)); res != NotFound {
		t.Fatalf("Cas missing = %v", res)
	}
	st := s.Stats()
	if st.CasHits != 1 || st.CasBadval != 1 || st.CasMisses != 1 {
		t.Fatalf("cas stats = %+v", st)
	}
}

func TestStoreDelete(t *testing.T) {
	s := newTestStore()
	s.Set("x", 0, 0, []byte("v"), 0)
	if !s.delete([]byte("x"), at(0)) {
		t.Fatal("Delete hit failed")
	}
	if s.delete([]byte("x"), at(0)) {
		t.Fatal("Delete after delete hit")
	}
	if _, _, _, ok := s.Get("x", 0); ok {
		t.Fatal("deleted key readable")
	}
}

func TestStoreExpiry(t *testing.T) {
	s := newTestStore()
	// Expire 10 virtual seconds after the set.
	s.Set("x", 0, 10, []byte("v"), 100*simnet.Second)
	if _, _, _, ok := s.Get("x", 105*simnet.Second); !ok {
		t.Fatal("not yet expired")
	}
	if _, _, _, ok := s.Get("x", 111*simnet.Second); ok {
		t.Fatal("expired item still served")
	}
	if s.Stats().Expired != 1 {
		t.Fatalf("Expired = %d", s.Stats().Expired)
	}
	// Absolute expiry (> 30 days) means "at that virtual second".
	abs := int64(maxRelativeExpiry + 100)
	s.Set("y", 0, abs, []byte("v"), 0)
	if _, _, _, ok := s.Get("y", simnet.Time(abs-1)*simnet.Second); !ok {
		t.Fatal("absolute expiry fired early")
	}
	if _, _, _, ok := s.Get("y", simnet.Time(abs+1)*simnet.Second); ok {
		t.Fatal("absolute expiry did not fire")
	}
}

func TestStoreTouch(t *testing.T) {
	s := newTestStore()
	s.Set("x", 0, 10, []byte("v"), 0)
	if !s.touch([]byte("x"), 1000, at(5*simnet.Second)) {
		t.Fatal("Touch failed")
	}
	if _, _, _, ok := s.Get("x", 500*simnet.Second); !ok {
		t.Fatal("touched item expired on old schedule")
	}
	if s.touch([]byte("nope"), 10, at(0)) {
		t.Fatal("Touch on absent key succeeded")
	}
}

func TestStoreFlushAll(t *testing.T) {
	s := newTestStore()
	s.Set("a", 0, 0, []byte("1"), 10)
	s.Set("b", 0, 0, []byte("2"), 20)
	s.FlushAll(50)
	if _, _, _, ok := s.Get("a", 60); ok {
		t.Fatal("flushed item served")
	}
	// Items set after the flush live on.
	s.Set("c", 0, 0, []byte("3"), 60)
	if _, _, _, ok := s.Get("c", 70); !ok {
		t.Fatal("post-flush item lost")
	}
}

func TestStoreIncrDecr(t *testing.T) {
	s := newTestStore()
	s.Set("n", 0, 0, []byte("10"), 0)
	if v, found, bad, _ := s.incrDecr([]byte("n"), 5, true, at(0)); v != 15 || !found || bad {
		t.Fatalf("Incr = (%d,%v,%v)", v, found, bad)
	}
	if v, _, _, _ := s.incrDecr([]byte("n"), 20, false, at(0)); v != 0 {
		t.Fatalf("Decr floor = %d, want 0", v)
	}
	if _, found, _, _ := s.incrDecr([]byte("missing"), 1, true, at(0)); found {
		t.Fatal("incr on missing key found")
	}
	s.Set("s", 0, 0, []byte("abc"), 0)
	if _, found, bad, oom := s.incrDecr([]byte("s"), 1, true, at(0)); !found || !bad || oom {
		t.Fatal("non-numeric incr should report badValue, not oom")
	}
	// Growth: 9 + 1 = 10 needs one more digit (realloc path).
	s.Set("g", 0, 0, []byte("9"), 0)
	if v, _, _, _ := s.incrDecr([]byte("g"), 1, true, at(0)); v != 10 {
		t.Fatalf("Incr growth = %d", v)
	}
	got, _, _, _ := s.Get("g", 0)
	if string(got) != "10" {
		t.Fatalf("stored grown value = %q", got)
	}
}

// TestStoreIncrDecrBytes: Stats().Bytes follows a value that incr/decr
// shrinks in place or grows out of place, and reads 0 once the keys are
// deleted.
func TestStoreIncrDecrBytes(t *testing.T) {
	s := newTestStore()
	bytesNow := func(step string, want uint64) {
		t.Helper()
		if st := s.Stats(); st.Bytes != want {
			t.Fatalf("after %s: Bytes = %d (CurrItems %d), want %d", step, st.Bytes, st.CurrItems, want)
		}
	}
	s.Set("k", 0, 0, []byte("100"), 0)
	bytesNow("set k 100", 1+3)
	if v, _, _, _ := s.incrDecr([]byte("k"), 100, false, at(0)); v != 0 {
		t.Fatalf("decr k 100 = %d, want 0", v)
	}
	bytesNow("decr k 100 (in place)", 1+1)
	s.Set("g", 0, 0, []byte("9"), 0)
	if v, _, _, _ := s.incrDecr([]byte("g"), 1, true, at(0)); v != 10 {
		t.Fatalf("incr g 1 = %d, want 10", v)
	}
	bytesNow("incr g 1 (out of place)", 1+1+1+2)
	s.delete([]byte("k"), at(0))
	s.delete([]byte("g"), at(0))
	if st := s.Stats(); st.CurrItems != 0 {
		t.Fatalf("CurrItems = %d after deleting every key", st.CurrItems)
	}
	bytesNow("delete k, delete g", 0)
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 2 << 20}) // two pages
	val := bytes.Repeat([]byte("x"), 8000)
	var n int
	for i := 0; ; i++ {
		res := s.Set(fmt.Sprintf("k%d", i), 0, 0, val, 0)
		if res != Stored {
			t.Fatalf("Set %d = %v (evictions should make room)", i, res)
		}
		n++
		if s.Stats().Evictions > 10 {
			break
		}
		if i > 10000 {
			t.Fatal("never evicted")
		}
	}
	// The most recent keys survive; the oldest were evicted.
	if _, _, _, ok := s.Get(fmt.Sprintf("k%d", n-1), 0); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, _, _, ok := s.Get("k0", 0); ok {
		t.Fatal("oldest key survived heavy eviction")
	}
}

func TestStoreEvictionDisabled(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 1 << 20, DisableEvictions: true})
	val := bytes.Repeat([]byte("x"), 8000)
	var sawOOM bool
	for i := 0; i < 1000; i++ {
		if res := s.Set(fmt.Sprintf("k%d", i), 0, 0, val, 0); res == OOM {
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("never returned OOM with evictions disabled")
	}
	if s.Stats().Evictions != 0 {
		t.Fatal("evictions happened despite -M")
	}
}

func TestStoreLRUOrder(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 2 << 20})
	val := bytes.Repeat([]byte("x"), 8000)
	// Fill well under capacity (2 MB holds ~240 such chunks).
	for i := 0; i < 100; i++ {
		if s.Set(fmt.Sprintf("k%d", i), 0, 0, val, 0) != Stored {
			t.Fatalf("warm set %d failed", i)
		}
	}
	// Touch the oldest so it becomes MRU.
	if _, _, _, ok := s.Get("k0", 0); !ok {
		t.Fatal("k0 missing before pressure")
	}
	// Force evictions with a flood of new keys.
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("new%d", i), 0, 0, val, 0)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no eviction pressure generated")
	}
	if _, _, _, ok := s.Get("k0", 0); !ok {
		t.Fatal("recently used key was evicted before colder keys")
	}
	if _, _, _, ok := s.Get("k1", 0); ok {
		t.Fatal("coldest key survived while pressure evicted others")
	}
}

func TestStorePinBlocksEvictionAndDefersFree(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 2 << 20})
	s.Set("pinned", 0, 0, []byte("precious"), 0)
	it, ok := s.getPinned([]byte("pinned"), at(0))
	if !ok {
		t.Fatal("GetPinned miss")
	}
	// Deleting while pinned unlinks but must not recycle the chunk.
	free0 := s.arena.freeChunks(int(it.chunk.class))
	if !s.delete([]byte("pinned"), at(0)) {
		t.Fatal("delete failed")
	}
	if s.arena.freeChunks(int(it.chunk.class)) != free0 {
		t.Fatal("pinned chunk recycled at delete")
	}
	if string(it.value()) != "precious" {
		t.Fatal("pinned value corrupted")
	}
	s.unpin(it)
	if s.arena.freeChunks(int(it.chunk.class)) != free0+1 {
		t.Fatal("chunk not freed after unpin")
	}
}

func TestStoreAllocateCommitAbort(t *testing.T) {
	s := newTestStore()
	it, res := s.allocateItem([]byte("k"), 5, 0, 8, 0)
	if res != Stored {
		t.Fatalf("AllocateItem = %v", res)
	}
	// Not yet visible.
	if _, _, _, ok := s.Get("k", 0); ok {
		t.Fatal("uncommitted item visible")
	}
	copy(it.value(), "rdmaland")
	s.commitItem(it, at(0))
	v, flags, _, ok := s.Get("k", 0)
	if !ok || string(v) != "rdmaland" || flags != 5 {
		t.Fatalf("committed = (%q,%d,%v)", v, flags, ok)
	}
	// An uncommitted item is released by unpinning it, which returns
	// the chunk.
	it2, _ := s.allocateItem([]byte("tmp"), 0, 0, 8, 0)
	free0 := s.arena.freeChunks(int(it2.chunk.class))
	s.unpin(it2)
	if s.arena.freeChunks(int(it2.chunk.class)) != free0+1 {
		t.Fatal("aborted chunk not freed")
	}
}

func TestStoreTooLarge(t *testing.T) {
	s := newTestStore()
	if res := s.Set("big", 0, 0, make([]byte, 2<<20), 0); res != TooLarge {
		t.Fatalf("Set huge = %v", res)
	}
	// An item's key length is a byte in its header; an AM header can
	// carry a longer key than the protocol allows, and it is refused.
	long := bytes.Repeat([]byte("k"), maxKeyLen+1)
	if res := s.store(StoreOpSet, long, 0, 0, []byte("v"), 0, at(0)); res != TooLarge {
		t.Fatalf("set of a %d B key = %v", len(long), res)
	}
	if _, res := s.allocateItem(long, 0, 0, 1, 0); res != TooLarge {
		t.Fatalf("allocateItem of a %d B key = %v", len(long), res)
	}
	if n := s.Stats().CurrItems; n != 0 {
		t.Fatalf("%d items stored", n)
	}
}

// TestStoreMissAllocatesNothing: a verb that misses links nothing and,
// with no recorder armed, records nothing — so it must not build the
// key's string. (An absent key longer than a stack temporary: a
// converted one is a heap allocation the count cannot miss.)
func TestStoreMissAllocatesNothing(t *testing.T) {
	s := newTestStore()
	key := []byte("an-absent-key-that-is-longer-than-thirty-two-bytes")
	val := []byte("v")
	for name, miss := range map[string]func(){
		"delete":  func() { s.delete(key, at(0)) },
		"touch":   func() { s.touch(key, 10, at(0)) },
		"incr":    func() { s.incrDecr(key, 1, true, at(0)) },
		"replace": func() { s.store(StoreOpReplace, key, 0, 0, val, 0, at(0)) },
		"append":  func() { s.store(StoreOpAppend, key, 0, 0, val, 0, at(0)) },
		"cas":     func() { s.store(StoreOpCas, key, 0, 0, val, 1, at(0)) },
	} {
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 2000; i++ {
				miss()
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs in 2000 misses, want 0", name, allocs)
		}
	}
	if s.Stats().CurrItems != 0 {
		t.Fatalf("a miss linked an item: CurrItems = %d", s.Stats().CurrItems)
	}
}

func TestStoreModelProperty(t *testing.T) {
	// Property: with ample memory and no expiry, the store behaves like
	// map[string]string under random set/get/delete.
	f := func(ops []uint16, vals []byte) bool {
		s := NewStore(StoreConfig{MemoryLimit: 32 << 20})
		model := map[string]string{}
		for i, op := range ops {
			key := "k" + strconv.Itoa(int(op%50))
			switch op % 3 {
			case 0:
				v := []byte{byte(i), byte(op), byte(op >> 8)}
				if len(vals) > 0 {
					v = append(v, vals[i%len(vals)])
				}
				if s.Set(key, 0, 0, v, 0) != Stored {
					return false
				}
				model[key] = string(v)
			case 1:
				v, _, _, ok := s.Get(key, 0)
				want, exists := model[key]
				if ok != exists || (ok && string(v) != want) {
					return false
				}
			case 2:
				_, exists := model[key]
				if s.delete([]byte(key), at(0)) != exists {
					return false
				}
				delete(model, key)
			}
		}
		return s.Stats().CurrItems == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentWorkers interleaves eight workers' set/get/delete
// mixes over 97 shared keys, each worker holding the item it pinned
// across every other worker's next op: a pinned value stays intact
// while its key is overwritten or deleted under it, and once every pin
// is released the counters match what is readable.
func TestStoreConcurrentWorkers(t *testing.T) {
	s := NewStore(StoreConfig{MemoryLimit: 4 << 20})
	const workers = 8
	const opsEach = 2000
	// A pin is intact while its item keeps the CAS id it was pinned
	// with (its header was not recycled) and the value its setter wrote:
	// 600 copies of the setter's index, which is also its flags.
	type pin struct {
		it  *item
		cas uint64
	}
	pins := make([]pin, workers)
	unpin := func(w int) {
		if p := pins[w]; p.it != nil {
			if p.it.casID != p.cas || !bytes.Equal(p.it.value(), bytes.Repeat([]byte{byte(p.it.flags)}, 600)) {
				t.Errorf("worker %d: pinned item changed under its pin", w)
			}
			s.unpin(p.it)
			pins[w] = pin{}
		}
	}
	var sets uint64
	keys := rand.New(rand.NewSource(3)) // any worker may hit any key
	interleave(2, workers, opsEach, func(w, i int) {
		key := fmt.Sprintf("k%d", keys.Intn(97))
		now := simnet.Time(i)
		switch (i + w) % 5 { // workers in different phases each round
		case 0, 1:
			s.Set(key, uint32(w), 0, bytes.Repeat([]byte{byte(w)}, 600), now)
			sets++
		case 2:
			if it, ok := s.getPinned([]byte(key), at(now)); ok {
				pins[w] = pin{it, it.casID}
			}
		case 3:
			unpin(w)
			s.Get(key, now)
		case 4:
			s.delete([]byte(key), at(now))
		}
	})
	for w := range pins {
		unpin(w)
	}
	st := s.Stats()
	if st.CmdSet != sets || st.CmdGet == 0 {
		t.Fatalf("CmdSet = %d, want %d (CmdGet %d)", st.CmdSet, sets, st.CmdGet)
	}
	live := uint64(0)
	for i := 0; i < 97; i++ {
		if _, _, _, ok := s.Get(fmt.Sprintf("k%d", i), opsEach); ok {
			live++
		}
	}
	if live != st.CurrItems {
		t.Fatalf("readable items %d != CurrItems %d", live, st.CurrItems)
	}
}
