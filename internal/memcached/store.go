package memcached

import (
	"fmt"
	"math/bits"
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

// maxItemPool bounds the store's retained Item-struct pool.
const maxItemPool = 256

// getItem pops a recycled Item (or allocates one).
func (s *Store) getItem() *item {
	if n := len(s.freeItems); n > 0 {
		it := s.freeItems[n-1]
		s.freeItems[n-1] = nil
		s.freeItems = s.freeItems[:n-1]
		return it
	}
	return &item{}
}

// putItem recycles an unlinked, unpinned Item whose chunk has been
// freed.
func (s *Store) putItem(it *item) {
	if len(s.freeItems) >= maxItemPool {
		return
	}
	*it = item{}
	s.freeItems = append(s.freeItems, it)
}

// Store is the cache engine of the memcached generation the paper
// modified: one hash table and one LRU chain per slab class over a
// slab arena, one flush horizon, one counter set and one item pool.
// Its cache lock is modelled as N stripes (N=1 is the paper's global
// lock; N>1 the §VII "exploiting multi-core" direction): each is a
// simnet.Resource a key's op books, picked from the same FNV-1a hash
// the table buckets use. The stripes shape lock waits only; every op
// reaches the one engine, and an eviction takes its class's LRU tail
// whichever stripe the victim hashes to.
//
// A Store takes no lock of its own: it has one owner, and every call is
// made under it. Inside a deployment the owner is the executor (a
// server's workers are its actors); a host process serving a Store from
// goroutines of its own serialises the calls itself (cmd/mcserver holds
// one mutex while a command runs).
type Store struct {
	arena       *slabArena
	table       *hashTable
	lru         *lruTable
	flushBefore simnet.Time
	stats       Stats
	evictions   bool

	// freeItems recycles Item structs, so steady-state set/delete churn
	// does not allocate one header per store. Items are pooled only where
	// their chunk is freed — never while linked or pinned.
	freeItems []*item

	// stripes are the modelled cache-lock stripes (see Store).
	stripes    []*simnet.Resource
	stripeMask uint64

	// opCost and copyRate are the serving threads' critical-section
	// model (Charge): the Server that owns the store sets them once,
	// before serving. Zero — a bare NewStore — charges nothing.
	opCost   simnet.Duration
	copyRate float64

	// nextCAS is memcached's one process-wide CAS sequence.
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
	// Stripes is the modelled lock-stripe count (rounded up to a power
	// of two; default 1 — the global cache lock). It sets how ops
	// contend in virtual time, never how the engine stores or evicts.
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
	n := 1 << bits.Len(uint(max(cfg.Stripes, 1)-1)) // the power of two ≥ Stripes
	s := &Store{
		arena:      newSlabArena(cfg.MemoryLimit, cfg.MaxItemSize),
		table:      newHashTable(),
		evictions:  !cfg.DisableEvictions,
		stripes:    make([]*simnet.Resource, n),
		stripeMask: uint64(n - 1),
	}
	s.lru = newLRUTable(s.arena.numClasses())
	s.stats.LimitMaxBytes = uint64(cfg.MemoryLimit)
	for i := range s.stripes {
		s.stripes[i] = simnet.NewResource(fmt.Sprintf("store-stripe-%d", i))
	}
	return s
}

// stripeOf picks the stripe of a key whose hashKey is h, from a
// Fibonacci spread of the hash: FNV-1a's raw high bits cluster badly for
// short sequential keys, and the low bits index table buckets, so the
// selector multiplies every input bit into fresh high bits instead of
// reusing either end directly.
func (s *Store) stripeOf(h uint64) *simnet.Resource {
	return s.stripes[((h*0x9e3779b97f4a7c15)>>32)&s.stripeMask]
}

// A charge is how a costed op pays for its key's stripe lock in virtual
// time, shared by both frontends: the engine critical section — the
// store's opCost plus the bytes copied while locked, at copyRate
// bytes/sec — queues on the stripe's resource behind other workers'
// holds, and only the queueing wait advances the serving thread's
// clock. The hold itself is covered by the per-op charges the thread
// already pays (never charged twice), and it stays at full opCost even
// in a coalesced drain: batching amortizes the worker's fixed costs, not
// the engine's critical section. The op books it inside its own engine
// call, on the stripe its one key hash picks. Uncontended acquisitions
// (single worker, single client, or untouched stripes) wait 0, and a
// store no Server owns (opCost 0) books nothing.
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
// a burst of same-stripe keys extends one backlog that other workers
// queue behind instead of queueing this worker behind its own holds.
func chargeAfter(clk *simnet.VClock, cursor simnet.Time) charge {
	return charge{clk: clk, at: cursor, now: clk.Now()}
}

// acquire queues c's hold, copied bytes included, on stripe and
// advances c's clock by the wait. It returns where the hold ends.
func (s *Store) acquire(stripe *simnet.Resource, c charge, copied int) simnet.Time {
	if s.opCost <= 0 || c.clk == nil {
		return c.at
	}
	hold := s.opCost + simnet.BytesDuration(copied, s.copyRate)
	wait := stripe.Acquire(c.at, hold) - c.at
	c.clk.Advance(wait)
	return c.at + wait + hold
}

// book is acquire for an op whose copy is known before it runs (every
// op but View): booked first or after, the hold is the same, and only
// when the op runs differs. It returns that time.
func (s *Store) book(stripe *simnet.Resource, c charge, copied int) simnet.Time {
	s.acquire(stripe, c, copied)
	if c.first {
		return c.clk.Now()
	}
	return c.now
}

// chargeLock books c for a command that touches no item: the text
// protocol's oversized store, refused before the engine runs.
func (s *Store) chargeLock(key []byte, c charge) {
	s.acquire(s.stripeOf(hashKey(key)), c, 0)
}

// LockStats sums lock occupancy across stripes (busy virtual time and
// acquisition count) — the contention observability counterpart of
// Stats.
func (s *Store) LockStats() (busy simnet.Duration, uses int64) {
	for _, stripe := range s.stripes {
		b, u := stripe.Stats()
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
func (s *Store) lookupLive(key []byte, h uint64, now simnet.Time) *item {
	it := s.table.lookup(key, h)
	if it == nil {
		return nil
	}
	if it.expired(now, s.flushBefore) {
		s.stats.Expired++
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: RecExpire, Key: string(key), Now: now, OldCAS: it.casID})
		}
		s.unlink(it, h)
		return nil
	}
	return it
}

// unlink removes an item, whose key hashes to h, from table and LRU,
// freeing its chunk unless a transfer still pins it (the chunk is then
// freed at unpin).
func (s *Store) unlink(it *item, h uint64) {
	if x := s.pub; x != nil {
		x.unpublish(it)
	}
	if it.linked {
		s.table.delete(it.key(), h)
	}
	s.lru.remove(it)
	s.stats.Bytes -= uint64(it.nkey) + uint64(it.nbytes)
	s.stats.CurrItems--
	if !it.pinned() {
		s.arena.free(it.chunk)
		s.putItem(it)
	}
}

// alloc grabs a chunk, evicting LRU victims as needed: like memcached's,
// a victim is the first unpinned item within evictionTries of its
// class's LRU tail, whichever stripe its key hashes to.
func (s *Store) alloc(n int, now simnet.Time) (chunk, StoreResult) {
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
		victim := s.lru.victim(ci, evictionTries)
		if victim == nil {
			return chunk{}, OOM
		}
		s.stats.Evictions++
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{
				Kind: RecEvict, Key: string(victim.key()), Now: now,
				OldCAS: victim.casID, OldValue: cloneBytes(victim.value()),
			})
		}
		s.unlink(victim, hashKey(victim.key()))
	}
}

// newItem allocates an unlinked item and copies key into its chunk,
// where the item's key lives from then on; the value follows it,
// valueLen bytes for the caller to fill. A key longer than the protocol
// allows is refused as too large (the text frontend never passes one; a
// hand-built AM header could).
func (s *Store) newItem(key []byte, flags uint32, exptime int64, valueLen int, now simnet.Time) (*item, StoreResult) {
	if len(key) > maxKeyLen {
		return nil, TooLarge
	}
	c, res := s.alloc(len(key)+valueLen+itemOverhead, now)
	if res != Stored {
		return nil, res
	}
	copy(c.buf, key)
	it := s.getItem()
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
func (s *Store) link(it *item, h uint64) {
	if old := s.table.lookup(it.key(), h); old != nil {
		s.unlink(old, h)
	}
	s.table.put(it, h)
	s.lru.insert(it)
	s.stats.Bytes += uint64(it.nkey) + uint64(it.nbytes)
	s.stats.CurrItems++
	s.stats.TotalItems++
	if x := s.pub; x != nil {
		x.publish(it)
	}
}

// allocateItem reserves an unlinked item whose value buffer the caller
// fills before commitItem — the UCR Set path lands the client's RDMA-
// read value directly in this slab memory (§V-B).
func (s *Store) allocateItem(key []byte, flags uint32, exptime int64, valueLen int, now simnet.Time) (*item, StoreResult) {
	it, res := s.newItem(key, flags, exptime, valueLen, now)
	if res == Stored {
		it.refcount++ // pinned until commitItem or unpin
	} else {
		// Failed allocations are recorded here (the commit never runs),
		// so the history still shows one store attempt per request.
		s.recordStore(RecSet, key, nil, flags, exptime, 0, nil, res, now)
	}
	return it, res
}

// commitItem links a previously allocated item, hashing its key once,
// for its stripe and the table. An item that is never committed is
// released with unpin.
func (s *Store) commitItem(it *item, c charge) {
	h := hashKey(it.key())
	now := s.book(s.stripeOf(h), c, 0)
	it.refcount--
	s.stats.CmdSet++
	s.link(it, h)
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{
			Kind: RecSet, Key: string(it.key()), Now: now, Res: Stored,
			Value: cloneBytes(it.value()), Flags: it.flags,
			Exptime: it.exptimeRaw, NewCAS: it.casID,
			ExpireAt: it.expireAt, SetAt: it.setAt,
		})
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
	now := s.book(s.stripeOf(h), c, len(value))
	if op < StoreOpAdd || op > StoreOpSet {
		return NotStored
	}
	s.stats.CmdSet++
	// set / add / replace differ only in the presence test that gates
	// the unconditional store.
	kind, gate := RecSet, true
	switch op {
	case StoreOpAppend, StoreOpPrepend:
		return s.concat(key, h, value, op == StoreOpPrepend, now)
	case StoreOpCas:
		return s.cas(key, h, flags, exptime, value, casID, now)
	case StoreOpAdd:
		kind, gate = RecAdd, s.lookupLive(key, h, now) == nil
	case StoreOpReplace:
		kind, gate = RecReplace, s.lookupLive(key, h, now) != nil
	}
	if !gate {
		s.recordStore(kind, key, nil, flags, exptime, 0, nil, NotStored, now)
		return NotStored
	}
	it, res := s.setItem(key, h, flags, exptime, value, now)
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
func (s *Store) cas(key []byte, h uint64, flags uint32, exptime int64, value []byte, casID uint64, now simnet.Time) StoreResult {
	it := s.lookupLive(key, h, now)
	if it == nil {
		s.stats.CasMisses++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, NotFound, now)
		return NotFound
	}
	if it.casID != casID {
		s.stats.CasBadval++
		s.recordStore(RecCas, key, nil, flags, exptime, casID, nil, Exists, now)
		return Exists
	}
	s.stats.CasHits++
	nit, res := s.setItem(key, h, flags, exptime, value, now)
	s.recordStore(RecCas, key, value, flags, exptime, casID, nit, res, now)
	return res
}

// setItem is the shared unconditional-store tail. The stored item is
// returned so callers can record the assigned CAS/expiry (nil on
// failure).
func (s *Store) setItem(key []byte, h uint64, flags uint32, exptime int64, value []byte, now simnet.Time) (*item, StoreResult) {
	it, res := s.newItem(key, flags, exptime, len(value), now)
	if res != Stored {
		return nil, res
	}
	copy(it.value(), value)
	s.link(it, h)
	return it, Stored
}

// unpin drops a refcount an op took (a getPinned reference, or
// allocateItem's pin on an uncommitted item), freeing the chunk (and
// recycling the header) if the item is unlinked and no longer pinned.
func (s *Store) unpin(it *item) {
	it.refcount--
	if !it.linked && !it.pinned() {
		s.arena.free(it.chunk)
		s.putItem(it)
	}
}

// concat implements append/prepend.
//
// The old item must be pinned across the allocation: newItem may evict
// LRU victims to make room, and without the pin the victim can be
// old itself — freeing the chunk old's value lives in, so the copy
// below would read (or, after the free list recycles the chunk into the
// new item, overwrite) freed slab memory. Records name the op's own
// key: unpin may recycle old and its chunk.
func (s *Store) concat(key []byte, h uint64, add []byte, prepend bool, now simnet.Time) StoreResult {
	kind := RecAppend
	if prepend {
		kind = RecPrepend
	}
	old := s.lookupLive(key, h, now)
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
	it, res := s.newItem(key, old.flags, 0, int(old.nbytes)+len(add), now)
	if res != Stored {
		s.unpin(old)
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
	s.unpin(old)
	s.link(it, h)
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

// countGet is the GET lookup: hit and miss counters, the LRU touch and
// the history record, alloc-free end to end. nil is a miss.
func (s *Store) countGet(key []byte, h uint64, now simnet.Time) *item {
	s.stats.CmdGet++
	it := s.lookupLive(key, h, now)
	if it == nil {
		s.stats.GetMisses++
	} else {
		s.stats.GetHits++
		s.lru.touch(it)
	}
	s.recordGet(key, it, now)
	return it
}

// getPinned returns the live item with its refcount raised, so its slab
// memory stays valid while a reply transfer (possibly a client-issued
// RDMA read) is in flight. The caller must Unpin.
func (s *Store) getPinned(key []byte, c charge) (*item, bool) {
	h := hashKey(key)
	it := s.countGet(key, h, s.book(s.stripeOf(h), c, 0))
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
	it := s.countGet(key, h, c.now)
	copied := 0
	if it != nil {
		read(it)
		copied = int(it.nbytes)
	}
	return it != nil, s.acquire(s.stripeOf(h), c, copied)
}

// delete removes key. ok=false is a miss.
func (s *Store) delete(key []byte, c charge) bool {
	h := hashKey(key)
	now := s.book(s.stripeOf(h), c, 0)
	it := s.lookupLive(key, h, now)
	if it == nil {
		s.stats.DeleteMisses++
		if rc := s.rec; rc != nil {
			rc.emit(&OpRecord{Kind: RecDelete, Key: string(key), Now: now})
		}
		return false
	}
	s.stats.DeleteHits++
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{Kind: RecDelete, Key: string(key), Now: now, Hit: true, OldCAS: it.casID})
	}
	s.unlink(it, h)
	return true
}

// incrDecr adjusts a numeric value. badValue=true means the stored value
// is not an unsigned number (protocol CLIENT_ERROR); oom=true means the
// grown value could not be allocated (protocol SERVER_ERROR) — a server
// failure, distinct from the caller's mistake.
func (s *Store) incrDecr(key []byte, delta uint64, incr bool, c charge) (newVal uint64, found, badValue, oom bool) {
	h := hashKey(key)
	now := s.book(s.stripeOf(h), c, 0)
	kind := RecIncr
	if !incr {
		kind = RecDecr
	}
	it := s.lookupLive(key, h, now)
	if it == nil {
		if incr {
			s.stats.IncrMisses++
		} else {
			s.stats.DecrMisses++
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
		s.stats.IncrHits++
		cur += delta
	} else {
		s.stats.DecrHits++
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
		s.stats.Bytes -= uint64(it.nbytes) - uint64(len(text))
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
		nit, res := s.newItem(key, flags, 0, len(text), now)
		s.unpin(it)
		if res != Stored {
			if rc := s.rec; rc != nil {
				rc.emit(&OpRecord{Kind: kind, Key: string(key), Now: now, Delta: delta, Hit: true, OOM: true, OldCAS: oldCAS})
			}
			return 0, true, false, true
		}
		nit.expireAt = exp
		copy(nit.value(), text)
		s.link(nit, h)
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
	now := s.book(s.stripeOf(h), c, 0)
	it := s.lookupLive(key, h, now)
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
	s.flushBefore = horizon
	if rc := s.rec; rc != nil {
		rc.emit(&OpRecord{Kind: RecFlushAll, Now: now, Horizon: horizon})
	}
	if x := s.pub; x != nil {
		x.wipe() // every published entry predates the horizon
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats { return s.stats }

// itemsPerClass counts linked items per slab class (the data behind
// `stats items`).
func (s *Store) itemsPerClass() []int {
	counts := make([]int, s.arena.numClasses())
	for i := range counts {
		counts[i] = s.lru.classItems(i)
	}
	return counts
}

// maxItemSize reports the largest storable object.
func (s *Store) maxItemSize() int { return s.arena.classSize(s.arena.numClasses() - 1) }
