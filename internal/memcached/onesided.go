package memcached

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"

	"repro/internal/simnet"
	"repro/internal/ucr"
)

// errNoUCR rejects EnableOneSided on a server without a UCR frontend.
var errNoUCR = errors.New("memcached: one-sided GET requires a UCR runtime (call ServeUCR first)")

// One-sided GET index (the paper's §VII future direction: serve GETs
// with client-issued RDMA Reads so the server CPU never runs). The
// server publishes a remotely-readable hash-bucket directory window;
// each live item has a directory entry naming where its [key][value]
// bytes sit in slab memory ({addr, rkey, lengths}) plus a seqlock word
// derived from the item's CAS id. Clients resolve key → entry with one
// directory read, RDMA-READ the bytes, and re-read the entry: the
// seqlock must be even and unchanged across the value fetch, or the
// read raced an overwrite/eviction and the client falls back to the
// two-sided AM path.
//
// Every mutation of published memory — directory entries and slab chunk
// bytes — happens under idx.guard's write lock, which is also installed
// as the server HCA's memory guard so simulated DMA read-locks it. The
// guard makes each individual RDMA read atomic; the seqlock makes the
// three-read sequence (entry, value, entry again) safe end to end.

// osEntrySize is the encoded size of one directory entry:
// keyHash(8) seq(8) addr(8) expireAt(8) rkey(4) kvlen(4) flags(4) pad(4).
const osEntrySize = 48

// OSEntrySize exports the slot size for the client-side reader.
const OSEntrySize = osEntrySize

// Default directory geometry. 512×4 entries cover the working sets the
// benchmarks use; a full bucket displaces its oldest slot (the displaced
// key silently degrades to the AM path).
const (
	osDefaultBuckets = 512
	osDefaultSlots   = 4
)

// osMaxKeyLen and osMaxValLen bound what fits in the packed kvlen word
// (keyLen<<24 | valLen). Memcached keys cap at 250 bytes and items at
// one slab page, so nothing representable is excluded.
const (
	osMaxKeyLen = 1<<8 - 1
	osMaxValLen = 1<<24 - 1
)

// OSEntry is one decoded directory slot.
type OSEntry struct {
	KeyHash  uint64
	Seq      uint64 // 2×casID when stable; odd or 0 means invalid
	Addr     uint64 // RDMA address of [key][value] in a slab-page window
	ExpireAt simnet.Time
	RKey     uint32
	KeyLen   int
	ValLen   int
	Flags    uint32
}

// Live reports whether the slot holds a validatable entry.
func (e OSEntry) Live() bool { return e.KeyHash != 0 && e.Seq != 0 && e.Seq%2 == 0 }

// CAS recovers the item's CAS id from the seqlock word.
func (e OSEntry) CAS() uint64 { return e.Seq / 2 }

// DecodeOSEntry unpacks one slot.
func DecodeOSEntry(b []byte) OSEntry {
	le := binary.LittleEndian
	kv := le.Uint32(b[36:])
	return OSEntry{
		KeyHash:  le.Uint64(b),
		Seq:      le.Uint64(b[8:]),
		Addr:     le.Uint64(b[16:]),
		ExpireAt: simnet.Time(le.Uint64(b[24:])),
		RKey:     le.Uint32(b[32:]),
		KeyLen:   int(kv >> 24),
		ValLen:   int(kv & 0xffffff),
		Flags:    le.Uint32(b[40:]),
	}
}

// OSKeyHash is the hash both sides use to place a key in the directory.
func OSKeyHash(key string) uint64 {
	h := hashKey(key)
	if h == 0 {
		h = 1 // 0 marks an empty slot
	}
	return h
}

// OSBucketOf maps a key hash to a bucket. buckets must be a power of
// two; a Fibonacci spread keeps the directory independent of both the
// shard selector (high bits) and the hash-table buckets (low bits).
func OSBucketOf(h uint64, buckets int) int {
	shift := 64 - bits.TrailingZeros64(uint64(buckets))
	return int((h * 0x9e3779b97f4a7c15) >> shift)
}

// OSDesc describes the one-sided directory to a client (it rides the
// AMArm capability exchange): whether one-sided GET is enabled and, if
// so, the directory geometry and window descriptor.
type OSDesc struct {
	Enabled        bool
	Buckets, Slots int
	Dir            ucr.WindowDesc
}

// EncodeOSDesc packs the descriptor.
func EncodeOSDesc(r OSDesc) []byte {
	b := make([]byte, 9)
	if r.Enabled {
		b[0] = 1
	}
	le := binary.LittleEndian
	le.PutUint32(b[1:], uint32(r.Buckets))
	le.PutUint32(b[5:], uint32(r.Slots))
	return append(b, r.Dir.Encode()...)
}

// DecodeOSDesc unpacks the descriptor.
func DecodeOSDesc(b []byte) (OSDesc, error) {
	if len(b) < 9 {
		return OSDesc{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	r := OSDesc{
		Enabled: b[0] != 0,
		Buckets: int(le.Uint32(b[1:])),
		Slots:   int(le.Uint32(b[5:])),
	}
	if r.Enabled {
		d, ok := ucr.DecodeWindowDesc(b[9:])
		if !ok {
			return OSDesc{}, ErrShortAMHeader
		}
		r.Dir = d
	}
	return r, nil
}

// osIndex is the server-side publisher.
type osIndex struct {
	rt             *ucr.Runtime
	arena          *SlabArena
	buckets, slots int

	// guard orders every write to published memory against simulated
	// DMA; it is installed as the server HCA's memory guard. Writers are
	// already serialized per key by the shard locks (taken first; the
	// guard is always innermost), so the write lock is short and final.
	guard sync.RWMutex

	dir    []byte
	dirWin *ucr.Window

	mu       sync.Mutex // guards pageWins growth
	pageWins []*ucr.Window

	published, displaced, unpublished uint64
}

func newOSIndex(rt *ucr.Runtime, arena *SlabArena, buckets, slots int) (*osIndex, error) {
	if buckets <= 0 {
		buckets = osDefaultBuckets
	}
	// Round buckets to a power of two for OSBucketOf.
	for buckets&(buckets-1) != 0 {
		buckets &= buckets - 1
	}
	if slots <= 0 {
		slots = osDefaultSlots
	}
	x := &osIndex{
		rt:      rt,
		arena:   arena,
		buckets: buckets,
		slots:   slots,
		dir:     make([]byte, buckets*slots*osEntrySize),
	}
	win, err := rt.CreateWindow(x.dir, nil)
	if err != nil {
		return nil, err
	}
	x.dirWin = win
	return x, nil
}

// pageWindow lazily registers slab page pi as an RDMA window.
// Registration happens off the virtual clock: pages register once, on
// first publish, and the paper's design amortizes pinning outside the
// data path. Returns nil if registration fails (the item then simply
// stays AM-only).
func (x *osIndex) pageWindow(pi int) *ucr.Window {
	x.mu.Lock()
	defer x.mu.Unlock()
	for len(x.pageWins) <= pi {
		x.pageWins = append(x.pageWins, nil)
	}
	if w := x.pageWins[pi]; w != nil {
		return w
	}
	w, err := x.rt.CreateWindow(x.arena.PageBytes(pi), nil)
	if err != nil {
		return nil
	}
	x.pageWins[pi] = w
	return w
}

// slotBytes returns the encoded bytes of bucket b, slot s.
func (x *osIndex) slotBytes(b, s int) []byte {
	base := (b*x.slots + s) * osEntrySize
	return x.dir[base : base+osEntrySize]
}

// publish writes (or rewrites) it's directory entry. Callers hold the
// item's shard lock; the guard is taken inside.
func (x *osIndex) publish(it *Item) {
	x.guard.Lock()
	x.publishLocked(it)
	x.guard.Unlock()
}

// publishLocked is publish for callers already holding the guard.
func (x *osIndex) publishLocked(it *Item) {
	if len(it.key) > osMaxKeyLen || len(it.value) > osMaxValLen {
		return
	}
	w := x.pageWindow(it.chunk.page)
	if w == nil {
		return
	}
	h := OSKeyHash(it.key)
	b := OSBucketOf(h, x.buckets)
	slot := -1
	for s := 0; s < x.slots; s++ {
		sb := x.slotBytes(b, s)
		kh := binary.LittleEndian.Uint64(sb)
		if kh == h {
			slot = s
			break
		}
		if kh == 0 && slot < 0 {
			slot = s
		}
	}
	reuse := slot >= 0 && binary.LittleEndian.Uint64(x.slotBytes(b, slot)) == h
	if slot < 0 {
		// Full bucket: displace a hash-chosen victim. The displaced key
		// falls back to the AM path on its next one-sided attempt.
		slot = int(h>>57) % x.slots
		x.displaced++
	}
	seq := 2 * it.casID
	if mutOneSidedStale && reuse {
		// Mutation: keep the old seqlock value on overwrite, so a client
		// validating against the directory accepts a stale pair.
		seq = binary.LittleEndian.Uint64(x.slotBytes(b, slot)[8:])
	}
	sb := x.slotBytes(b, slot)
	le := binary.LittleEndian
	le.PutUint64(sb, h)
	le.PutUint64(sb[8:], seq)
	le.PutUint64(sb[16:], w.Desc().Addr+uint64(it.chunk.off))
	le.PutUint64(sb[24:], uint64(it.expireAt))
	le.PutUint32(sb[32:], uint32(w.Desc().RKey))
	le.PutUint32(sb[36:], uint32(len(it.key))<<24|uint32(len(it.value)))
	le.PutUint32(sb[40:], it.flags)
	le.PutUint32(sb[44:], 0)
	x.published++
}

// unpublish invalidates it's entry (if it still owns one): the seqlock
// goes odd before the slot empties, so a client mid-read fails its
// re-validation instead of trusting a recycled chunk.
func (x *osIndex) unpublish(it *Item) {
	h := OSKeyHash(it.key)
	b := OSBucketOf(h, x.buckets)
	x.guard.Lock()
	for s := 0; s < x.slots; s++ {
		sb := x.slotBytes(b, s)
		le := binary.LittleEndian
		if le.Uint64(sb) != h {
			continue
		}
		le.PutUint64(sb[8:], le.Uint64(sb[8:])|1) // odd: invalid
		le.PutUint64(sb, 0)
		le.PutUint64(sb[16:], 0)
		le.PutUint32(sb[36:], 0)
		x.unpublished++
		break
	}
	x.guard.Unlock()
}

// wipe empties the whole directory (flush_all). Callers hold every
// shard lock, so no publisher can race the sweep.
func (x *osIndex) wipe() {
	x.guard.Lock()
	for i := range x.dir {
		x.dir[i] = 0
	}
	x.guard.Unlock()
}

// Buckets reports the directory's bucket count.
func (x *osIndex) Buckets() int { return x.buckets }

// Slots reports slots per bucket.
func (x *osIndex) Slots() int { return x.slots }

// DirDesc reports the directory window's descriptor.
func (x *osIndex) DirDesc() ucr.WindowDesc { return x.dirWin.Desc() }

// Guard exposes the memory guard to install as the HCA's.
func (x *osIndex) Guard() *sync.RWMutex { return &x.guard }

// Stats reports publish/displace/invalidate counts (tests, reporting).
func (x *osIndex) Stats() (published, displaced, unpublished uint64) {
	x.guard.RLock()
	defer x.guard.RUnlock()
	return x.published, x.displaced, x.unpublished
}

// close revokes the windows (server shutdown).
func (x *osIndex) close() {
	if x.dirWin != nil {
		x.dirWin.Close()
	}
	x.mu.Lock()
	wins := x.pageWins
	x.pageWins = nil
	x.mu.Unlock()
	for _, w := range wins {
		if w != nil {
			w.Close()
		}
	}
}

// --- Server integration ------------------------------------------------

// EnableOneSided arms the one-sided GET index on a UCR-serving server:
// the store starts publishing directory entries and the serving HCA
// gets the index's memory guard, so simulated DMA and the engine's
// writes to published memory are ordered. Call after ServeUCR, before
// traffic. buckets/slots ≤ 0 get defaults.
func (s *Server) EnableOneSided(buckets, slots int) error {
	if s.ucrRT == nil {
		return errNoUCR
	}
	x, err := s.store.EnableOneSided(s.ucrRT, buckets, slots)
	if err != nil {
		return err
	}
	s.ucrRT.HCA().SetMemGuard(x.Guard())
	return nil
}

// --- Store integration -------------------------------------------------

// EnableOneSided arms the store's one-sided index: every commit path
// publishes, every unlink path unpublishes, and the returned index's
// guard must be installed as the serving HCA's memory guard. buckets
// and slots ≤ 0 get defaults.
func (s *Store) EnableOneSided(rt *ucr.Runtime, buckets, slots int) (*osIndex, error) {
	x, err := newOSIndex(rt, s.arena, buckets, slots)
	if err != nil {
		return nil, err
	}
	s.pub.Store(x)
	return x, nil
}

// OneSidedIndex reports the armed index, or nil.
func (s *Store) OneSidedIndex() *osIndex { return s.pub.Load() }

// memWr runs fn — a writer of slab chunk bytes — under the one-sided
// memory guard when armed. Unarmed stores pay only a nil check.
func (s *Store) memWr(fn func()) {
	if x := s.pub.Load(); x != nil {
		x.guard.Lock()
		fn()
		x.guard.Unlock()
		return
	}
	fn()
}

// mutateInPlace runs fn (an in-place rewrite of it.value/casID) and
// republishes the item's entry in one guard critical section, so no
// reader can pair the new bytes with the old seqlock or vice versa.
func (s *Store) mutateInPlace(it *Item, fn func()) {
	x := s.pub.Load()
	if x == nil {
		fn()
		return
	}
	x.guard.Lock()
	fn()
	x.publishLocked(it)
	x.guard.Unlock()
}
