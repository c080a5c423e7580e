package memcached

import (
	"fmt"
	"strconv"

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

// shardCounters are one shard's engine counters.
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
// chains and stats. The stripe's lock exists only in virtual time: res
// models it — workers queue their lock hold times on it, so contention
// shows up as measured latency (LockWait) — while the store's one owner
// (see Store) keeps the host from ever running two ops at once.
type shard struct {
	id          uint16 // index in Store.shards, recorded on its items
	res         *simnet.Resource
	table       *hashTable
	lru         *lruTable
	flushBefore simnet.Time
	stats       shardCounters

	// freeItems recycles Item structs, so steady-state set/delete churn
	// does not allocate one header per store. Items are pooled only where
	// their chunk is freed — never while linked or pinned.
	freeItems []*item
}

// maxItemPool bounds each shard's retained Item-struct pool.
const maxItemPool = 256

// getItem pops a recycled Item (or allocates one).
func (sh *shard) getItem() *item {
	if n := len(sh.freeItems); n > 0 {
		it := sh.freeItems[n-1]
		sh.freeItems[n-1] = nil
		sh.freeItems = sh.freeItems[:n-1]
		return it
	}
	return &item{}
}

// putItem recycles an unlinked, unpinned Item whose chunk has been
// freed.
func (sh *shard) putItem(it *item) {
	if len(sh.freeItems) >= maxItemPool {
		return
	}
	*it = item{}
	sh.freeItems = append(sh.freeItems, it)
}

// Store is the cache engine: a shared slab arena plus N lock-striped
// shards (N=1 reproduces the global cache lock of the memcached
// generation the paper modified; N>1 is the §VII "exploiting
// multi-core" direction). A key's shard is picked from the high bits of
// the same FNV-1a hash the table buckets use — one hash per op serves
// both — so striping never skews bucket occupancy within a shard.
//
// A Store takes no lock of its own: it has one owner, and every call is
// made under it. Inside a deployment the owner is the executor (a
// server's workers are its actors); a host process serving a Store from
// goroutines of its own serialises the calls itself (cmd/mcserver holds
// one mutex while a command runs).
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
	nextCAS uint64

	// rec, when armed, receives one OpRecord per state transition (see
	// record.go). nil in normal operation.
	rec *recorder

	// pub, when armed, is the one-sided GET index (onesided.go): commit
	// paths publish directory entries and unlink paths invalidate them.
	// nil in normal operation.
	pub *osIndex
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

// A charge is how a costed op pays for its key's stripe lock in virtual
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
type charge struct {
	clk   *simnet.VClock // advanced by the wait; nil: no charge
	at    simnet.Time    // where the hold queues
	now   simnet.Time    // when the op runs, unless first
	first bool           // booked before the op, which runs when the wait ends
}

// at runs an op at now with no lock charge: a bare store's caller.
func at(now simnet.Time) charge { return charge{at: now, now: now} }

// chargeFirst is the UCR frontend's charge: the lock is booked at clk's
// time before the lookup, which runs when the wait ends. No copy
// extends the hold — a reply is served from the pinned item's slab
// memory, a Set's value has landed by RDMA before the commit (§V-B/C) —
// except a conditional store's staged value.
func chargeFirst(clk *simnet.VClock) charge {
	return charge{clk: clk, at: clk.Now(), first: true}
}

// chargeAfter is the sockets frontend's charge: the op runs at clk's
// time and the lock is booked after it, so the hold covers the bytes
// the op copied. It queues from cursor: clk's time for a single-key
// command; for a multi-key one, where its previous key's hold ended, so
// a burst of same-shard keys extends one backlog that other workers
// queue behind instead of queueing this worker behind its own holds.
func chargeAfter(clk *simnet.VClock, cursor simnet.Time) charge {
	return charge{clk: clk, at: cursor, now: clk.Now()}
}

// acquire queues c's hold, copied bytes included, on sh's resource and
// advances c's clock by the wait. It returns where the hold ends.
func (s *Store) acquire(sh *shard, c charge, copied int) simnet.Time {
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
func (s *Store) book(sh *shard, c charge, copied int) simnet.Time {
	s.acquire(sh, c, copied)
	if c.first {
		return c.clk.Now()
	}
	return c.now
}

// chargeLock books c for a command that touches no item: the text
// protocol's oversized store, refused before the engine runs.
func (s *Store) chargeLock(key []byte, c charge) {
	s.acquire(s.shardOf(hashKey(key)), c, 0)
}

// LockStats sums lock occupancy across shards (busy virtual time and
// acquisition count) — the contention observability counterpart of
// Stats.
func (s *Store) LockStats() (busy simnet.Duration, uses int64) {
	for _, sh := range s.shards {
		b, u := sh.res.Stats()
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

// lookupLive finds a live item for key, whose hashKey is h, lazily
// reaping an expired one.
func (s *Store) lookupLive(sh *shard, key []byte, h uint64, now simnet.Time) *item {
	it := sh.table.lookup(key, h)
	if it == nil {
		return nil
	}
	if it.expired(now, sh.flushBefore) {
		sh.stats.expired++
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: RecExpire, Key: string(key), Now: now, OldCAS: it.casID})
		}
		s.unlink(sh, it, h)
		return nil
	}
	return it
}

// unlink removes an item, whose key hashes to h, from table and LRU,
// freeing its chunk unless a transfer still pins it (the chunk is then
// freed at Unpin).
func (s *Store) unlink(sh *shard, it *item, h uint64) {
	if x := s.pub; x != nil {
		x.unpublish(it)
	}
	if it.linked {
		sh.table.delete(it.key(), h)
	}
	sh.lru.remove(it)
	sh.stats.bytes -= uint64(it.nkey) + uint64(it.nbytes)
	sh.stats.currItems--
	if !it.pinned() {
		s.arena.free(it.chunk)
		sh.putItem(it)
	}
}

// alloc grabs a chunk, evicting LRU victims as needed. Victims come
// only from the calling shard's own chains: an op touches the one stripe
// its key hashes to, and that stripe's modelled lock is all it booked.
func (s *Store) alloc(sh *shard, n int, now simnet.Time) (chunk, StoreResult) {
	for {
		c, err := s.arena.alloc(n)
		if err == nil {
			return c, Stored
		}
		if err != errNoMemory {
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
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{
				Kind: RecEvict, Key: string(victim.key()), Now: now,
				OldCAS: victim.casID, OldValue: cloneBytes(victim.value()),
			})
		}
		s.unlink(sh, victim, hashKey(victim.key()))
	}
}

// newItem allocates an unlinked item and copies key into its chunk,
// where the item's key lives from then on; the value follows it,
// valueLen bytes for the caller to fill. A key longer than the protocol
// allows is refused as too large (the text frontend never passes one; a
// hand-built AM header could).
func (s *Store) newItem(sh *shard, key []byte, flags uint32, exptime int64, valueLen int, now simnet.Time) (*item, StoreResult) {
	if len(key) > maxKeyLen {
		return nil, TooLarge
	}
	c, res := s.alloc(sh, len(key)+valueLen+itemOverhead, now)
	if res != Stored {
		return nil, res
	}
	copy(c.buf, key)
	it := sh.getItem()
	it.shard = sh.id
	it.chunk = c
	it.nkey = uint8(len(key))
	it.nbytes = uint32(valueLen)
	it.flags = flags
	it.expireAt = expiryTime(exptime, now)
	s.nextCAS++
	it.casID = s.nextCAS
	it.setAt = now
	it.exptimeRaw = exptime
	return it, Stored
}

// link commits an item, whose key hashes to h, replacing any existing
// entry for the key.
func (s *Store) link(sh *shard, it *item, h uint64) {
	if old := sh.table.lookup(it.key(), h); old != nil {
		s.unlink(sh, old, h)
	}
	sh.table.put(it, h)
	sh.lru.insert(it)
	sh.stats.bytes += uint64(it.nkey) + uint64(it.nbytes)
	sh.stats.currItems++
	sh.stats.totalItems++
	if x := s.pub; x != nil {
		x.publish(it)
	}
}

// allocateItem reserves an unlinked item whose value buffer the caller
// fills before commitItem — the UCR Set path lands the client's RDMA-
// read value directly in this slab memory (§V-B).
func (s *Store) allocateItem(key []byte, flags uint32, exptime int64, valueLen int, now simnet.Time) (*item, StoreResult) {
	sh := s.shardOf(hashKey(key))
	it, res := s.newItem(sh, key, flags, exptime, valueLen, now)
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
func (s *Store) commitItem(it *item, c charge) {
	sh := s.shards[it.shard]
	now := s.book(sh, c, 0)
	it.refcount--
	sh.stats.cmdSet++
	s.link(sh, it, hashKey(it.key()))
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{
			Kind: RecSet, Key: string(it.key()), Now: now, Res: Stored,
			Value: cloneBytes(it.value()), Flags: it.flags,
			Exptime: it.exptimeRaw, NewCAS: it.casID,
			ExpireAt: it.expireAt, SetAt: it.setAt,
		})
	}
}

// abortItem releases an allocated-but-uncommitted item.
func (s *Store) abortItem(it *item) {
	sh := s.shards[it.shard]
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
// key is copied into the item's chunk beside the value, so no store
// builds a key string.
func (s *Store) store(op uint8, key []byte, flags uint32, exptime int64, value []byte, casID uint64, c charge) StoreResult {
	h := hashKey(key)
	sh := s.shardOf(h)
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
		return s.concat(sh, key, h, value, op == StoreOpPrepend, now)
	case StoreOpCas:
		return s.cas(sh, key, h, flags, exptime, value, casID, now)
	case StoreOpAdd:
		kind, gate = RecAdd, s.lookupLive(sh, key, h, now) == nil
	case StoreOpReplace:
		kind, gate = RecReplace, s.lookupLive(sh, key, h, now) != nil
	}
	if !gate {
		s.recordStore(kind, key, nil, flags, exptime, 0, nil, NotStored, now)
		return NotStored
	}
	it, res := s.setItem(sh, key, h, flags, exptime, value, now)
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

// cas is the cas verb's body.
func (s *Store) cas(sh *shard, key []byte, h uint64, flags uint32, exptime int64, value []byte, casID uint64, now simnet.Time) StoreResult {
	it := s.lookupLive(sh, key, h, now)
	if it == nil {
		sh.stats.casMisses++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, NotFound, now)
		return NotFound
	}
	if it.casID != casID {
		sh.stats.casBadval++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, Exists, now)
		return Exists
	}
	sh.stats.casHits++
	nit, res := s.setItem(sh, key, h, flags, exptime, value, now)
	s.recordStore(RecCas, key, value, flags, exptime, casID, nit, res, now)
	return res
}

// setItem is the shared unconditional-store tail. The stored item is
// returned so callers can record the assigned CAS/expiry (nil on
// failure).
func (s *Store) setItem(sh *shard, key []byte, h uint64, flags uint32, exptime int64, value []byte, now simnet.Time) (*item, StoreResult) {
	it, res := s.newItem(sh, key, flags, exptime, len(value), now)
	if res != Stored {
		return nil, res
	}
	copy(it.value(), value)
	s.link(sh, it, h)
	return it, Stored
}

// releasePin drops a refcount an op took, freeing the chunk (and
// recycling the header) if the item was unlinked (evicted/replaced)
// while pinned.
func (s *Store) releasePin(sh *shard, it *item) {
	it.refcount--
	if !it.linked && !it.pinned() {
		s.arena.free(it.chunk)
		sh.putItem(it)
	}
}

// concat implements append/prepend.
//
// The old item must be pinned across the allocation: newItem may evict
// LRU victims to make room, and without the pin the victim can be
// old itself — freeing the chunk old's value lives in, so the copy
// below would read (or, after the free list recycles the chunk into the
// new item, overwrite) freed slab memory. Records name the op's own
// key: releasePin may recycle old and its chunk.
func (s *Store) concat(sh *shard, key []byte, h uint64, add []byte, prepend bool, now simnet.Time) StoreResult {
	kind := RecAppend
	if prepend {
		kind = RecPrepend
	}
	old := s.lookupLive(sh, key, h, now)
	if old == nil {
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Res: NotStored, Arg: cloneBytes(add)})
		}
		return NotStored
	}
	old.refcount++
	oldCAS := old.casID
	var oldVal []byte
	if s.rec != nil {
		oldVal = cloneBytes(old.value())
	}
	it, res := s.newItem(sh, key, old.flags, 0, int(old.nbytes)+len(add), now)
	if res != Stored {
		s.releasePin(sh, old)
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: string(key), Now: now, Res: res,
				Arg: cloneBytes(add), OldValue: oldVal, OldCAS: oldCAS,
			})
		}
		return res
	}
	it.expireAt = old.expireAt
	if prepend {
		copy(it.value(), add)
		copy(it.value()[len(add):], old.value())
	} else {
		copy(it.value(), old.value())
		copy(it.value()[old.nbytes:], add)
	}
	s.releasePin(sh, old)
	s.link(sh, it, h)
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{
			Kind: kind, Key: string(key), Now: now, Res: Stored,
			Arg: cloneBytes(add), OldValue: oldVal, OldCAS: oldCAS,
			Value: cloneBytes(it.value()), Flags: it.flags, NewCAS: it.casID,
			ExpireAt: it.expireAt, SetAt: it.setAt,
		})
	}
	return Stored
}

// Get copies out the value for key (see Set). ok=false is a miss.
func (s *Store) Get(key string, now simnet.Time) (value []byte, flags uint32, casID uint64, ok bool) {
	ok, _ = s.view(append(make([]byte, 0, maxKeyLen), key...), at(now), func(it *item) {
		value, flags, casID = append(make([]byte, 0, it.nbytes), it.value()...), it.flags, it.casID
	})
	return value, flags, casID, ok
}

// unpin releases a getPinned reference, freeing the chunk if the item
// was unlinked (replaced/evicted/deleted) while pinned.
func (s *Store) unpin(it *item) { s.releasePin(s.shards[it.shard], it) }

// countGet is the GET lookup: hit and miss counters, the LRU touch and
// the history record, alloc-free end to end. nil is a miss.
func (s *Store) countGet(sh *shard, key []byte, h uint64, now simnet.Time) *item {
	sh.stats.cmdGet++
	it := s.lookupLive(sh, key, h, now)
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
func (s *Store) getPinned(key []byte, c charge) (*item, bool) {
	h := hashKey(key)
	sh := s.shardOf(h)
	it := s.countGet(sh, key, h, s.book(sh, c, 0))
	if it == nil {
		return nil, false
	}
	it.refcount++
	return it, true
}

// view is the sockets engine's GET: instead of pinning the hit it runs
// read on it inside the op, where that engine copies the value out
// under its stripe's lock. Its charge is booked after read, so the hold
// covers the value's bytes (a miss copies none); the returned end is
// where the hold ends, the next key's cursor in a multi-key get. read
// must not call back into the Store or retain the item.
func (s *Store) view(key []byte, c charge, read func(*item)) (hit bool, end simnet.Time) {
	h := hashKey(key)
	sh := s.shardOf(h)
	it := s.countGet(sh, key, h, c.now)
	copied := 0
	if it != nil {
		read(it)
		copied = int(it.nbytes)
	}
	return it != nil, s.acquire(sh, c, copied)
}

// delete removes key. ok=false is a miss.
func (s *Store) delete(key []byte, c charge) bool {
	h := hashKey(key)
	sh := s.shardOf(h)
	now := s.book(sh, c, 0)
	it := s.lookupLive(sh, key, h, now)
	if it == nil {
		sh.stats.deleteMisses++
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: RecDelete, Key: string(key), Now: now})
		}
		return false
	}
	sh.stats.deleteHits++
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{Kind: RecDelete, Key: string(key), Now: now, Hit: true, OldCAS: it.casID})
	}
	s.unlink(sh, it, h)
	return true
}

// incrDecr adjusts a numeric value. badValue=true means the stored value
// is not an unsigned number (protocol CLIENT_ERROR); oom=true means the
// grown value could not be allocated (protocol SERVER_ERROR) — a server
// failure, distinct from the caller's mistake.
func (s *Store) incrDecr(key []byte, delta uint64, incr bool, c charge) (newVal uint64, found, badValue, oom bool) {
	h := hashKey(key)
	sh := s.shardOf(h)
	now := s.book(sh, c, 0)
	kind := RecIncr
	if !incr {
		kind = RecDecr
	}
	it := s.lookupLive(sh, key, h, now)
	if it == nil {
		if incr {
			sh.stats.incrMisses++
		} else {
			sh.stats.decrMisses++
		}
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Delta: delta})
		}
		return 0, false, false, false
	}
	cur, err := strconv.ParseUint(string(it.value()), 10, 64)
	if err != nil {
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Delta: delta, Hit: true, Bad: true, OldCAS: it.casID})
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
	if len(text) <= int(it.nbytes) {
		// Fits in place: memcached right-pads with spaces semantics are
		// emulated by shrinking the value to the new length. The
		// republish gives the entry the new CAS's seqlock, so a one-sided
		// reader that fetched the old bytes fails its re-validation.
		copy(it.value(), text)
		sh.stats.bytes -= uint64(it.nbytes) - uint64(len(text))
		it.nbytes = uint32(len(text))
		s.nextCAS++
		it.casID = s.nextCAS
		if x := s.pub; x != nil {
			x.publish(it)
		}
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: string(key), Now: now, Delta: delta, Hit: true,
				NewNum: cur, Value: cloneBytes(it.value()), Flags: it.flags,
				NewCAS: it.casID, OldCAS: oldCAS,
				ExpireAt: it.expireAt, SetAt: it.setAt,
			})
		}
	} else {
		// Pin the current item across the allocation: newItem may
		// evict it to make room, and the pin keeps its chunk (and the
		// expiry we carry over) alive until the swap completes.
		flags, exp := it.flags, it.expireAt
		it.refcount++
		nit, res := s.newItem(sh, key, flags, 0, len(text), now)
		s.releasePin(sh, it)
		if res != Stored {
			if rc := s.rec; rc != nil {
				rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Delta: delta, Hit: true, OOM: true, OldCAS: oldCAS})
			}
			return 0, true, false, true
		}
		nit.expireAt = exp
		copy(nit.value(), text)
		s.link(sh, nit, h)
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{
				Kind: kind, Key: string(key), Now: now, Delta: delta, Hit: true,
				NewNum: cur, Value: cloneBytes(nit.value()), Flags: nit.flags,
				NewCAS: nit.casID, OldCAS: oldCAS,
				ExpireAt: nit.expireAt, SetAt: nit.setAt,
			})
		}
	}
	return cur, true, false, false
}

// touch updates an item's expiry.
func (s *Store) touch(key []byte, exptime int64, c charge) bool {
	h := hashKey(key)
	sh := s.shardOf(h)
	now := s.book(sh, c, 0)
	it := s.lookupLive(sh, key, h, now)
	if it == nil {
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: RecTouch, Key: string(key), Now: now, Exptime: exptime})
		}
		return false
	}
	it.expireAt = expiryTime(exptime, now)
	if x := s.pub; x != nil {
		x.publish(it) // refresh the entry's expiry
	}
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{
			Kind: RecTouch, Key: string(key), Now: now, Exptime: exptime, Hit: true,
			ExpireAt: it.expireAt, OldCAS: it.casID,
		})
	}
	return true
}

// FlushAll invalidates everything stored before now (lazy, like
// memcached: items vanish on next access).
func (s *Store) FlushAll(now simnet.Time) {
	horizon := now + 1
	for _, sh := range s.shards {
		sh.flushBefore = horizon
	}
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{Kind: RecFlushAll, Now: now, Horizon: horizon})
	}
	if x := s.pub; x != nil {
		x.wipe() // every published entry predates the horizon
	}
}

// Stats snapshots the counters, summing each shard's.
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		c := sh.stats
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
		for i := range counts {
			counts[i] += sh.lru.classItems(i)
		}
	}
	return counts
}

// maxItemSize reports the largest storable object.
func (s *Store) maxItemSize() int { return s.arena.classSize(s.arena.numClasses() - 1) }
