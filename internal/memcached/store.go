package memcached

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
)

// StoreResult is the outcome of a conditional storage command.
type StoreResult int

// Storage command outcomes, mapping 1:1 to protocol replies.
const (
	Stored StoreResult = iota
	NotStored
	Exists
	NotFound
	TooLarge
	OOM
)

func (r StoreResult) String() string {
	switch r {
	case Stored:
		return "STORED"
	case NotStored:
		return "NOT_STORED"
	case Exists:
		return "EXISTS"
	case NotFound:
		return "NOT_FOUND"
	case TooLarge:
		return "SERVER_ERROR object too large for cache"
	default:
		return "SERVER_ERROR out of memory storing object"
	}
}

// Stats is a snapshot of engine counters (a subset of `stats`).
type Stats struct {
	CmdGet, CmdSet                             uint64
	GetHits, GetMisses                         uint64
	DeleteHits, DeleteMisses                   uint64
	IncrHits, IncrMisses, DecrHits, DecrMisses uint64
	CasHits, CasMisses, CasBadval              uint64
	Evictions, Expired                         uint64
	CurrItems, TotalItems                      uint64
	Bytes                                      uint64
	LimitMaxBytes                              uint64
}

// itemOverhead models memcached's per-item header in chunk sizing.
const itemOverhead = 48

// maxKeyLen is the protocol's key-length cap.
const maxKeyLen = 250

// evictionTries bounds the LRU tail walk, like memcached's tries=50.
const evictionTries = 50

// maxRelativeExpiry matches memcached: expiry values up to 30 days are
// relative seconds; larger values are absolute (here: absolute virtual
// seconds since simulation start).
const maxRelativeExpiry = 60 * 60 * 24 * 30

// shardCounters are one shard's engine counters, written and read
// under the shard lock.
type shardCounters struct {
	cmdGet, cmdSet                             uint64
	getHits, getMisses                         uint64
	deleteHits, deleteMisses                   uint64
	incrHits, incrMisses, decrHits, decrMisses uint64
	casHits, casMisses, casBadval              uint64
	evictions, expired                         uint64
	currItems, totalItems                      uint64
	bytes                                      uint64
}

// shard is one lock stripe: a hash-table segment, its per-class LRU
// chains, a CAS counter and stats, all under one mutex. res models that
// mutex in virtual time — workers queue their lock hold times on it, so
// contention shows up as measured latency (LockWait).
type shard struct {
	mu          sync.Mutex
	id          uint16 // index in Store.shards, recorded on its items
	res         *simnet.Resource
	table       *hashTable
	lru         *lruTable
	flushBefore simnet.Time
	stats       shardCounters

	// freeItems recycles Item structs (under mu), so steady-state
	// set/delete churn does not allocate one header per store. Items are
	// pooled only where their chunk is freed — never while linked or
	// pinned.
	freeItems []*Item
}

// maxItemPool bounds each shard's retained Item-struct pool.
const maxItemPool = 256

// getItem pops a recycled Item (or allocates one). Caller holds sh.mu.
func (sh *shard) getItem() *Item {
	if n := len(sh.freeItems); n > 0 {
		it := sh.freeItems[n-1]
		sh.freeItems[n-1] = nil
		sh.freeItems = sh.freeItems[:n-1]
		return it
	}
	return &Item{}
}

// putItem recycles an unlinked, unpinned Item whose chunk has been
// freed. Caller holds sh.mu.
func (sh *shard) putItem(it *Item) {
	if len(sh.freeItems) >= maxItemPool {
		return
	}
	*it = Item{}
	sh.freeItems = append(sh.freeItems, it)
}

// Store is the cache engine: a shared slab arena plus N lock-striped
// shards (N=1 reproduces the global cache lock of the memcached
// generation the paper modified; N>1 is the §VII "exploiting
// multi-core" direction). A key's shard is picked from the high bits of
// the same FNV-1a hash the table buckets use — one hash per op serves
// both — so striping never skews bucket occupancy within a shard.
type Store struct {
	arena     *slabArena
	shards    []*shard
	shardMask uint64
	evictions bool
	limit     int64

	// opCost and copyRate are the serving threads' critical-section
	// model (Charge): the Server that owns the store sets them once,
	// before serving. Zero — a bare NewStore — charges nothing.
	opCost   simnet.Duration
	copyRate float64

	// nextCAS is global, not per-shard: memcached CAS IDs are one
	// process-wide sequence, and keeping it that way also keeps the
	// IDs — which travel in "gets" responses — independent of the
	// stripe count.
	nextCAS atomic.Uint64

	// rec, when armed, receives one OpRecord per state transition (see
	// record.go). nil in normal operation.
	rec atomic.Pointer[recorder]

	// pub, when armed, is the one-sided GET index (onesided.go): commit
	// paths publish directory entries, unlink paths invalidate them, and
	// chunk-byte writers take its memory guard. nil in normal operation.
	pub atomic.Pointer[osIndex]
}

// StoreConfig sizes a Store.
type StoreConfig struct {
	// MemoryLimit is the slab arena cap in bytes (memcached -m).
	MemoryLimit int64
	// MaxItemSize caps one item (memcached -I; default 1 MB).
	MaxItemSize int
	// Stripes is the lock-stripe count (rounded up to a power of two, at
	// most maxStripes; default 1 — the global-lock engine).
	Stripes int
	// DisableEvictions makes the store error instead of evicting
	// (memcached -M).
	DisableEvictions bool
}

// NewStore builds an engine with the given limits. A zero MemoryLimit
// gets memcached's default of 64 MB.
func NewStore(cfg StoreConfig) *Store {
	if cfg.MemoryLimit <= 0 {
		cfg.MemoryLimit = 64 << 20
	}
	n := 1
	for n < cfg.Stripes && n < maxStripes {
		n <<= 1
	}
	s := &Store{
		arena:     newSlabArena(cfg.MemoryLimit, cfg.MaxItemSize),
		shards:    make([]*shard, n),
		shardMask: uint64(n - 1),
		evictions: !cfg.DisableEvictions,
		limit:     cfg.MemoryLimit,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			id:    uint16(i),
			res:   simnet.NewResource(fmt.Sprintf("store-shard-%d", i)),
			table: newHashTable(),
			lru:   newLRUTable(s.arena.numClasses()),
		}
	}
	return s
}

// maxStripes bounds the shard count: an item records its shard's index
// in 16 bits.
const maxStripes = 1 << 16

// shardOf picks the stripe of a key whose hashKey is h, from a Fibonacci
// spread of the hash: FNV-1a's raw high bits cluster badly for short
// sequential keys, and the low bits index buckets inside the shard's
// table, so the selector multiplies every input bit into fresh high bits
// instead of reusing either end directly.
func (s *Store) shardOf(h uint64) *shard {
	return s.shards[((h*0x9e3779b97f4a7c15)>>32)&s.shardMask]
}

// A Charge is how a costed op pays for its key's stripe lock in virtual
// time, shared by both frontends: the engine critical section — the
// store's opCost plus the bytes copied while locked, at copyRate
// bytes/sec — queues on the stripe's resource behind other workers'
// holds, and only the queueing wait advances the serving thread's
// clock. The hold itself is covered by the per-op charges the thread
// already pays (never charged twice), and it stays at full opCost even
// in a coalesced drain: batching amortizes the worker's fixed costs, not
// the engine's critical section. The op books it in its own shard hold,
// under its one key hash. Uncontended acquisitions (single worker,
// single client, or untouched stripes) wait 0, and a store no Server
// owns (opCost 0) books nothing.
type Charge struct {
	clk   *simnet.VClock // advanced by the wait; nil: no charge
	at    simnet.Time    // where the hold queues
	now   simnet.Time    // when the op runs, unless first
	first bool           // booked before the op, which runs when the wait ends
}

// at runs an op at now with no lock charge: a bare store's caller.
func at(now simnet.Time) Charge { return Charge{at: now, now: now} }

// chargeFirst is the UCR frontend's charge: the lock is booked at clk's
// time before the lookup, which runs when the wait ends. No copy
// extends the hold — a reply is served from the pinned item's slab
// memory, a Set's value has landed by RDMA before the commit (§V-B/C) —
// except a conditional store's staged value.
func chargeFirst(clk *simnet.VClock) Charge {
	return Charge{clk: clk, at: clk.Now(), first: true}
}

// chargeAfter is the sockets frontend's charge: the op runs at clk's
// time and the lock is booked after it, so the hold covers the bytes
// the op copied. It queues from cursor: clk's time for a single-key
// command; for a multi-key one, where its previous key's hold ended, so
// a burst of same-shard keys extends one backlog that other workers
// queue behind instead of queueing this worker behind its own holds.
func chargeAfter(clk *simnet.VClock, cursor simnet.Time) Charge {
	return Charge{clk: clk, at: cursor, now: clk.Now()}
}

// acquire queues c's hold, copied bytes included, on sh's resource and
// advances c's clock by the wait (sh.mu held). It returns where the hold
// ends.
func (s *Store) acquire(sh *shard, c Charge, copied int) simnet.Time {
	if s.opCost <= 0 || c.clk == nil {
		return c.at
	}
	hold := s.opCost + simnet.BytesDuration(copied, s.copyRate)
	wait := sh.res.Acquire(c.at, hold) - c.at
	c.clk.Advance(wait)
	return c.at + wait + hold
}

// book is acquire for an op whose copy is known before it runs (every
// op but View): booked first or after, the hold is the same, and only
// when the op runs differs. It returns that time.
func (s *Store) book(sh *shard, c Charge, copied int) simnet.Time {
	s.acquire(sh, c, copied)
	if c.first {
		return c.clk.Now()
	}
	return c.now
}

// chargeLock books c for a command that touches no item: the text
// protocol's oversized store, refused before the engine runs.
func (s *Store) chargeLock(key []byte, c Charge) {
	sh := s.shardOf(hashKey(key))
	sh.mu.Lock()
	s.acquire(sh, c, 0)
	sh.mu.Unlock()
}

// LockStats sums lock occupancy across shards (busy virtual time and
// acquisition count) — the contention observability counterpart of
// Stats.
func (s *Store) LockStats() (busy simnet.Duration, uses int64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		b, u := sh.res.Stats()
		sh.mu.Unlock()
		busy += b
		uses += u
	}
	return busy, uses
}

// expiryTime converts a protocol exptime to an absolute virtual time.
func expiryTime(exptime int64, now simnet.Time) simnet.Time {
	switch {
	case exptime == 0:
		return 0
	case exptime <= maxRelativeExpiry:
		return now + simnet.Time(exptime)*simnet.Second
	default:
		return simnet.Time(exptime) * simnet.Second
	}
}

// lookupLocked finds a live item for key, whose hashKey is h, lazily
// reaping an expired one.
func (s *Store) lookupLocked(sh *shard, key []byte, h uint64, now simnet.Time) *Item {
	it := lookup(sh.table, key, h)
	if it == nil {
		return nil
	}
	if it.expired(now, sh.flushBefore) && !mutGetSkipExpiry {
		sh.stats.expired++
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: RecExpire, Key: it.key, Now: now, OldCAS: it.casID})
		}
		s.unlinkLocked(sh, it, h)
		return nil
	}
	return it
}

// unlinkLocked removes an item, whose key hashes to h, from table and
// LRU, freeing its chunk unless a transfer still pins it (the chunk is
// then freed at Unpin).
func (s *Store) unlinkLocked(sh *shard, it *Item, h uint64) {
	if x := s.pub.Load(); x != nil {
		x.unpublish(it)
	}
	if it.linked {
		sh.table.delete(it.key, h)
	}
	sh.lru.remove(it)
	sh.stats.bytes -= uint64(len(it.key) + len(it.value))
	sh.stats.currItems--
	if !it.pinned() {
		s.arena.free(it.chunk)
		sh.putItem(it)
	}
}

// allocLocked grabs a chunk, evicting LRU victims as needed. Victims
// come only from the calling shard's own chains — its lock is the only
// one held, so items other shards own are untouchable here.
func (s *Store) allocLocked(sh *shard, n int, now simnet.Time) (chunk, StoreResult) {
	for {
		c, err := s.arena.alloc(n)
		if err == nil {
			return c, Stored
		}
		if err != ErrNoMemory {
			return chunk{}, TooLarge
		}
		if !s.evictions {
			return chunk{}, OOM
		}
		ci, ok := s.arena.classFor(n)
		if !ok {
			return chunk{}, TooLarge
		}
		victim := sh.lru.victim(ci, evictionTries)
		if victim == nil {
			return chunk{}, OOM
		}
		sh.stats.evictions++
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{
				Kind: RecEvict, Key: victim.key, Now: now,
				OldCAS: victim.casID, OldValue: cloneBytes(victim.value),
			})
		}
		s.unlinkLocked(sh, victim, hashKey(victim.key))
	}
}

// internKeyLocked resolves the string an item about to be linked keeps
// for a wire-decoded key: when the key is already resident (even
// expired — strings are immutable) its existing string is reused, so
// steady-state overwrites of a live keyspace never allocate. A
// first-seen key converts once. Nothing else in the engine builds a key
// string outside a history record.
func internKeyLocked(sh *shard, key []byte, h uint64) string {
	if it := lookup(sh.table, key, h); it != nil {
		return it.key
	}
	return string(key)
}

// newItemLocked allocates and fills an unlinked item.
func (s *Store) newItemLocked(sh *shard, key string, flags uint32, exptime int64, valueLen int, now simnet.Time) (*Item, StoreResult) {
	c, res := s.allocLocked(sh, len(key)+valueLen+itemOverhead, now)
	if res != Stored {
		return nil, res
	}
	s.memWr(func() { copy(c.buf, key) })
	it := sh.getItem()
	it.shard = sh.id
	it.key = key
	it.value = c.buf[len(key) : len(key)+valueLen]
	it.chunk = c
	it.flags = flags
	it.expireAt = expiryTime(exptime, now)
	it.casID = s.nextCAS.Add(1)
	it.setAt = now
	it.exptimeRaw = exptime
	return it, Stored
}

// linkLocked commits an item, whose key hashes to h, replacing any
// existing entry for the key.
func (s *Store) linkLocked(sh *shard, it *Item, h uint64) {
	if old := lookup(sh.table, it.key, h); old != nil {
		s.unlinkLocked(sh, old, h)
	}
	sh.table.put(it, h)
	sh.lru.insert(it)
	sh.stats.bytes += uint64(len(it.key) + len(it.value))
	sh.stats.currItems++
	sh.stats.totalItems++
	if x := s.pub.Load(); x != nil {
		x.publish(it)
	}
}

// allocateItem reserves an unlinked item whose value buffer the caller
// fills before commitItem — the UCR Set path lands the client's RDMA-
// read value directly in this slab memory (§V-B). Alloc-free for keys
// already resident.
func (s *Store) allocateItem(key []byte, flags uint32, exptime int64, valueLen int, now simnet.Time) (*Item, StoreResult) {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, res := s.newItemLocked(sh, internKeyLocked(sh, key, h), flags, exptime, valueLen, now)
	if res == Stored {
		it.refcount++ // pinned until commit/abort
	} else {
		// Failed allocations are recorded here (the commit never runs),
		// so the history still shows one store attempt per request.
		s.recordStore(RecSet, key, nil, flags, exptime, 0, nil, res, now)
	}
	return it, res
}

// commitItem links a previously allocated item. Its stripe is the one
// allocateItem recorded; the key is hashed once, for the table.
func (s *Store) commitItem(it *Item, c Charge) {
	sh := s.shards[it.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.book(sh, c, 0)
	it.refcount--
	sh.stats.cmdSet++
	s.linkLocked(sh, it, hashKey(it.key))
	if rc := s.rec.Load(); rc != nil {
		rc.emit(&OpRecord{
			Kind: RecSet, Key: it.key, Now: now, Res: Stored,
			Value: cloneBytes(it.value), Flags: it.flags,
			Exptime: it.exptimeRaw, NewCAS: it.casID,
			ExpireAt: it.expireAt, SetAt: it.setAt,
		})
	}
}

// abortItem releases an allocated-but-uncommitted item.
func (s *Store) abortItem(it *Item) {
	sh := s.shards[it.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it.refcount--
	if !it.pinned() {
		s.arena.free(it.chunk)
		sh.putItem(it)
	}
}

// store runs one storage verb for a wire-decoded key — the text
// protocol's entry, and AMStore's. op is a StoreOp* code (an unknown
// one stores nothing, but is still charged). Both frontends copy the
// value into slab memory under the lock, so it extends the hold. The
// key's string is built only if an item is linked under a key not
// already resident, so overwriting a resident key — and any conditional
// miss — allocates nothing.
func (s *Store) store(op uint8, key []byte, flags uint32, exptime int64, value []byte, casID uint64, c Charge) StoreResult {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.book(sh, c, len(value))
	if op < StoreOpAdd || op > StoreOpSet {
		return NotStored
	}
	sh.stats.cmdSet++
	// set / add / replace differ only in the presence test that gates
	// the unconditional store.
	kind, gate := RecSet, true
	switch op {
	case StoreOpAppend, StoreOpPrepend:
		return s.concatLocked(sh, key, h, value, op == StoreOpPrepend, now)
	case StoreOpCas:
		return s.casLocked(sh, key, h, flags, exptime, value, casID, now)
	case StoreOpAdd:
		kind, gate = RecAdd, mutAddClobbers || s.lookupLocked(sh, key, h, now) == nil
	case StoreOpReplace:
		kind, gate = RecReplace, s.lookupLocked(sh, key, h, now) != nil
	}
	if !gate {
		s.recordStore(kind, key, nil, flags, exptime, 0, nil, NotStored, now)
		return NotStored
	}
	it, res := s.setLocked(sh, key, h, flags, exptime, value, now)
	if res != Stored {
		value = nil // a failed store records no value
	}
	s.recordStore(kind, key, value, flags, exptime, 0, it, res, now)
	return res
}

// Set stores key=value unconditionally. It and Get are the engine's only
// string-keyed entries, kept as adapters for the fenced
// benchmark/probes.go; the key is copied to the stack, not the heap.
func (s *Store) Set(key string, flags uint32, exptime int64, value []byte, now simnet.Time) StoreResult {
	return s.store(StoreOpSet, append(make([]byte, 0, maxKeyLen), key...), flags, exptime, value, 0, at(now))
}

// casLocked is the cas verb's body. Caller holds sh.mu.
func (s *Store) casLocked(sh *shard, key []byte, h uint64, flags uint32, exptime int64, value []byte, casID uint64, now simnet.Time) StoreResult {
	it := s.lookupLocked(sh, key, h, now)
	if it == nil {
		sh.stats.casMisses++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, NotFound, now)
		return NotFound
	}
	if it.casID != casID && !mutCasIgnoreID {
		sh.stats.casBadval++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, Exists, now)
		return Exists
	}
	sh.stats.casHits++
	nit, res := s.setLocked(sh, key, h, flags, exptime, value, now)
	s.recordStore(RecCas, key, value, flags, exptime, casID, nit, res, now)
	return res
}

// setLocked is the shared unconditional-store tail. The stored item is
// returned so callers can record the assigned CAS/expiry (nil on
// failure).
func (s *Store) setLocked(sh *shard, key []byte, h uint64, flags uint32, exptime int64, value []byte, now simnet.Time) (*Item, StoreResult) {
	it, res := s.newItemLocked(sh, internKeyLocked(sh, key, h), flags, exptime, len(value), now)
	if res != Stored {
		return nil, res
	}
	s.memWr(func() { copy(it.value, value) })
	s.linkLocked(sh, it, h)
	return it, Stored
}

// releasePin drops a refcount taken inside the lock, freeing the chunk
// (and recycling the header) if the item was unlinked
// (evicted/replaced) while pinned.
func (s *Store) releasePin(sh *shard, it *Item) {
	it.refcount--
	if !it.linked && !it.pinned() {
		s.arena.free(it.chunk)
		sh.putItem(it)
	}
}

// concatLocked implements append/prepend.
//
// The old item must be pinned across the allocation: newItemLocked may
// evict LRU victims to make room, and without the pin the victim can be
// old itself — freeing the chunk old.value aliases, so the copy below
// would read (or, after the free list recycles the chunk into the new
// item, overwrite) freed slab memory.
func (s *Store) concatLocked(sh *shard, key []byte, h uint64, add []byte, prepend bool, now simnet.Time) StoreResult {
	kind := RecAppend
	if prepend {
		kind = RecPrepend
	}
	old := s.lookupLocked(sh, key, h, now)
	if old == nil {
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Res: NotStored, Arg: cloneBytes(add)})
		}
		return NotStored
	}
	old.refcount++
	skey, oldCAS := old.key, old.casID // outlive old: releasePin may recycle the header
	var oldVal []byte
	if s.rec.Load() != nil {
		oldVal = cloneBytes(old.value)
	}
	it, res := s.newItemLocked(sh, skey, old.flags, 0, len(old.value)+len(add), now)
	if res != Stored {
		s.releasePin(sh, old)
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: skey, Now: now, Res: res,
				Arg: cloneBytes(add), OldValue: oldVal, OldCAS: oldCAS,
			})
		}
		return res
	}
	it.expireAt = old.expireAt
	if mutAppendNoCAS {
		it.casID = oldCAS
	}
	s.memWr(func() {
		if prepend {
			copy(it.value, add)
			copy(it.value[len(add):], old.value)
		} else {
			copy(it.value, old.value)
			copy(it.value[len(old.value):], add)
		}
	})
	s.releasePin(sh, old)
	s.linkLocked(sh, it, h)
	if rc := s.rec.Load(); rc != nil {
		rc.emit(&OpRecord{
			Kind: kind, Key: skey, Now: now, Res: Stored,
			Arg: cloneBytes(add), OldValue: oldVal, OldCAS: oldCAS,
			Value: cloneBytes(it.value), Flags: it.flags, NewCAS: it.casID,
			ExpireAt: it.expireAt, SetAt: it.setAt,
		})
	}
	return Stored
}

// Get copies out the value for key (see Set). ok=false is a miss.
func (s *Store) Get(key string, now simnet.Time) (value []byte, flags uint32, casID uint64, ok bool) {
	ok, _ = s.view(append(make([]byte, 0, maxKeyLen), key...), at(now), func(it *Item) {
		value, flags, casID = append(make([]byte, 0, len(it.value)), it.value...), it.flags, it.casID
	})
	return value, flags, casID, ok
}

// unpin releases a getPinned reference, freeing the chunk if the item
// was unlinked (replaced/evicted/deleted) while pinned.
func (s *Store) unpin(it *Item) {
	sh := s.shards[it.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.releasePin(sh, it)
}

// getLocked is the GET lookup: hit and miss counters, the LRU touch and
// the history record, alloc-free end to end. Caller holds sh.mu; nil is
// a miss.
func (s *Store) getLocked(sh *shard, key []byte, h uint64, now simnet.Time) *Item {
	sh.stats.cmdGet++
	it := s.lookupLocked(sh, key, h, now)
	if it == nil {
		sh.stats.getMisses++
	} else {
		sh.stats.getHits++
		sh.lru.touch(it)
	}
	s.recordGet(key, it, now)
	return it
}

// getPinned returns the live item with its refcount raised, so its slab
// memory stays valid while a reply transfer (possibly a client-issued
// RDMA read) is in flight. The caller must Unpin.
func (s *Store) getPinned(key []byte, c Charge) (*Item, bool) {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := s.getLocked(sh, key, h, s.book(sh, c, 0))
	if it == nil {
		return nil, false
	}
	it.refcount++
	return it, true
}

// view is the sockets engine's GET: instead of pinning the hit it runs
// read on it while the shard lock is held, which is where that engine
// copies the value out. Its charge is booked after read, so the hold
// covers the value's bytes (a miss copies none); the returned end is
// where the hold ends, the next key's cursor in a multi-key get. read
// must not call back into the Store or retain the item.
func (s *Store) view(key []byte, c Charge, read func(*Item)) (hit bool, end simnet.Time) {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := s.getLocked(sh, key, h, c.now)
	copied := 0
	if it != nil {
		read(it)
		copied = len(it.value)
	}
	return it != nil, s.acquire(sh, c, copied)
}

// delete removes key. ok=false is a miss.
func (s *Store) delete(key []byte, c Charge) bool {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.book(sh, c, 0)
	it := s.lookupLocked(sh, key, h, now)
	if it == nil {
		sh.stats.deleteMisses++
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: RecDelete, Key: string(key), Now: now})
		}
		return false
	}
	sh.stats.deleteHits++
	if rc := s.rec.Load(); rc != nil {
		rc.emit(&OpRecord{Kind: RecDelete, Key: it.key, Now: now, Hit: true, OldCAS: it.casID})
	}
	if !mutDeleteNoop {
		s.unlinkLocked(sh, it, h)
	}
	return true
}

// incrDecr adjusts a numeric value. badValue=true means the stored value
// is not an unsigned number (protocol CLIENT_ERROR); oom=true means the
// grown value could not be allocated (protocol SERVER_ERROR) — a server
// failure, distinct from the caller's mistake.
func (s *Store) incrDecr(key []byte, delta uint64, incr bool, c Charge) (newVal uint64, found, badValue, oom bool) {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.book(sh, c, 0)
	kind := RecIncr
	if !incr {
		kind = RecDecr
	}
	it := s.lookupLocked(sh, key, h, now)
	if it == nil {
		if incr {
			sh.stats.incrMisses++
		} else {
			sh.stats.decrMisses++
		}
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Delta: delta})
		}
		return 0, false, false, false
	}
	skey := it.key // outlives it: the grow path may recycle the header
	cur, err := strconv.ParseUint(string(it.value), 10, 64)
	if err != nil {
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: skey, Now: now, Delta: delta, Hit: true, Bad: true, OldCAS: it.casID})
		}
		return 0, true, true, false
	}
	if incr {
		sh.stats.incrHits++
		cur += delta
	} else {
		sh.stats.decrHits++
		if delta > cur {
			cur = 0
		} else {
			cur -= delta
		}
	}
	oldCAS := it.casID
	var digits [20]byte // a uint64 in decimal
	text := strconv.AppendUint(digits[:0], cur, 10)
	if len(text) <= len(it.value) {
		// Fits in place: memcached right-pads with spaces semantics are
		// emulated by shrinking the value slice to the new length. The
		// rewrite and the directory republish share one guard section so
		// a one-sided reader can never pair new bytes with the old seq.
		s.mutateInPlace(it, func() {
			copy(it.value, text)
			it.value = it.value[:len(text)]
			it.casID = s.nextCAS.Add(1)
		})
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: skey, Now: now, Delta: delta, Hit: true,
				NewNum: cur, Value: cloneBytes(it.value), Flags: it.flags,
				NewCAS: it.casID, OldCAS: oldCAS,
				ExpireAt: it.expireAt, SetAt: it.setAt,
			})
		}
	} else {
		// Pin the current item across the allocation: newItemLocked may
		// evict it to make room, and the pin keeps its chunk (and the
		// expiry we carry over) alive until the swap completes.
		flags, exp := it.flags, it.expireAt
		it.refcount++
		nit, res := s.newItemLocked(sh, skey, flags, 0, len(text), now)
		s.releasePin(sh, it)
		if res != Stored {
			if rc := s.rec.Load(); rc != nil {
				rc.emit(&OpRecord{Kind: kind, Key: skey, Now: now, Delta: delta, Hit: true, OOM: true, OldCAS: oldCAS})
			}
			return 0, true, false, true
		}
		nit.expireAt = exp
		s.memWr(func() { copy(nit.value, text) })
		s.linkLocked(sh, nit, h)
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: skey, Now: now, Delta: delta, Hit: true,
				NewNum: cur, Value: cloneBytes(nit.value), Flags: nit.flags,
				NewCAS: nit.casID, OldCAS: oldCAS,
				ExpireAt: nit.expireAt, SetAt: nit.setAt,
			})
		}
	}
	return cur, true, false, false
}

// touch updates an item's expiry.
func (s *Store) touch(key []byte, exptime int64, c Charge) bool {
	h := hashKey(key)
	sh := s.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := s.book(sh, c, 0)
	it := s.lookupLocked(sh, key, h, now)
	if it == nil {
		if rc := s.rec.Load(); rc != nil {
			rc.emit(&OpRecord{Kind: RecTouch, Key: string(key), Now: now, Exptime: exptime})
		}
		return false
	}
	it.expireAt = expiryTime(exptime, now)
	if x := s.pub.Load(); x != nil {
		x.publish(it) // refresh the entry's expiry
	}
	if rc := s.rec.Load(); rc != nil {
		rc.emit(&OpRecord{
			Kind: RecTouch, Key: it.key, Now: now, Exptime: exptime, Hit: true,
			ExpireAt: it.expireAt, OldCAS: it.casID,
		})
	}
	return true
}

// FlushAll invalidates everything stored before now (lazy, like
// memcached: items vanish on next access).
func (s *Store) FlushAll(now simnet.Time) {
	horizon := now + 1
	// All shard locks at once (in index order; every other path takes
	// exactly one, so this cannot deadlock). Setting the horizons shard
	// by shard would let a concurrent op observe the new horizon and
	// emit an expiry record sequenced BEFORE the flush record — the
	// recorded history must show the flush as a single transition.
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	for _, sh := range s.shards {
		sh.flushBefore = horizon
	}
	if rc := s.rec.Load(); rc != nil {
		rc.emit(&OpRecord{Kind: RecFlushAll, Now: now, Horizon: horizon})
	}
	if x := s.pub.Load(); x != nil {
		x.wipe() // every published entry predates the horizon
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// Stats snapshots the counters, summing each shard's under its lock:
// the data path writes them there, so it pays no atomics for them.
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		c := sh.stats
		sh.mu.Unlock()
		st.CmdGet += c.cmdGet
		st.CmdSet += c.cmdSet
		st.GetHits += c.getHits
		st.GetMisses += c.getMisses
		st.DeleteHits += c.deleteHits
		st.DeleteMisses += c.deleteMisses
		st.IncrHits += c.incrHits
		st.IncrMisses += c.incrMisses
		st.DecrHits += c.decrHits
		st.DecrMisses += c.decrMisses
		st.CasHits += c.casHits
		st.CasMisses += c.casMisses
		st.CasBadval += c.casBadval
		st.Evictions += c.evictions
		st.Expired += c.expired
		st.CurrItems += c.currItems
		st.TotalItems += c.totalItems
		st.Bytes += c.bytes
	}
	st.LimitMaxBytes = uint64(s.limit)
	return st
}

// itemsPerClass counts linked items per slab class, summed across
// shards (the data behind `stats items`).
func (s *Store) itemsPerClass() []int {
	counts := make([]int, s.arena.numClasses())
	for _, sh := range s.shards {
		sh.mu.Lock()
		for i := range counts {
			counts[i] += sh.lru.classItems(i)
		}
		sh.mu.Unlock()
	}
	return counts
}

// maxItemSize reports the largest storable object.
func (s *Store) maxItemSize() int { return s.arena.classSize(s.arena.numClasses() - 1) }
