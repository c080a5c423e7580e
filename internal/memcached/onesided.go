package memcached

import (
	"encoding/binary"
	"errors"
	"math/bits"

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
// Published memory — directory entries and slab chunk bytes — is written
// only by store ops and read only by simulated DMA, and both run under
// the deployment's one owner, so each individual RDMA read sees a whole
// entry or a whole value; the seqlock makes the three-read sequence
// (entry, value, entry again) safe end to end.

// OSEntrySize is the encoded size of one directory entry:
// KeyHash(8) seq(8) addr(8) expireAt(8) rkey(4) kvlen(4) flags(4) pad(4).
const OSEntrySize = 48

// Directory geometry. 512×4 entries cover the working sets the
// benchmarks use; a full bucket displaces a hash-chosen slot (the
// displaced key silently degrades to the AM path). osBuckets is a power
// of two for OSBucketOf.
const (
	osBuckets = 512
	osSlots   = 4
)

// osMaxValLen bounds the value length in the packed kvlen word
// (keyLen<<24 | valLen); an item's key length is a byte already.
// Memcached items cap at one slab page, so nothing representable is
// excluded.
const osMaxValLen = 1<<24 - 1

// OSEntry is one decoded directory slot.
type OSEntry struct {
	KeyHash  uint64
	Seq      uint64 // 2×casID when stable; odd or 0 means invalid
	Addr     uint64 // RDMA address of [key][value] in a slab-segment window
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
func OSKeyHash(key string) uint64 { return osKeyHash(key) }

// osKeyHash is OSKeyHash over either key form, for the server's item
// keys.
func osKeyHash[K wireKey](key K) uint64 {
	h := hashKey(key)
	if h == 0 {
		h = 1 // 0 marks an empty slot
	}
	return h
}

// OSBucketOf maps a key hash to a bucket. buckets must be a power of
// two; a Fibonacci spread keeps the directory independent of both the
// stripe selector and the hash-table buckets (low bits).
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

// encodeOSDesc packs the descriptor.
func encodeOSDesc(r OSDesc) []byte {
	b := make([]byte, 9)
	if r.Enabled {
		b[0] = 1
	}
	le := binary.LittleEndian
	le.PutUint32(b[1:], uint32(r.Buckets))
	le.PutUint32(b[5:], uint32(r.Slots))
	return append(b, r.Dir.Encode()...)
}

// decodeOSDesc unpacks the descriptor.
func decodeOSDesc(b []byte) (OSDesc, error) {
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
	rt    *ucr.Runtime
	arena *slabArena

	dir    []byte
	dirWin *ucr.Window

	segWins []*ucr.Window // by segment index; nil: not registered yet
}

func newOSIndex(rt *ucr.Runtime, arena *slabArena) (*osIndex, error) {
	x := &osIndex{
		rt:    rt,
		arena: arena,
		dir:   make([]byte, osBuckets*osSlots*OSEntrySize),
	}
	win, err := rt.CreateWindow(x.dir, nil)
	if err != nil {
		return nil, err
	}
	x.dirWin = win
	return x, nil
}

// segWindow lazily registers slab segment si as an RDMA window.
// Registration happens off the virtual clock: segments register once,
// on first publish, and the paper's design amortizes pinning outside the
// data path. Returns a nil window if registration fails (the item then
// simply stays AM-only).
func (x *osIndex) segWindow(si int) *ucr.Window {
	for len(x.segWins) <= si {
		x.segWins = append(x.segWins, nil)
	}
	if w := x.segWins[si]; w != nil {
		return w
	}
	w, err := x.rt.CreateWindow(x.arena.segs[si].buf, nil)
	if err != nil {
		return nil
	}
	x.segWins[si] = w
	return w
}

// slotBytes returns the encoded bytes of bucket b, slot s.
func (x *osIndex) slotBytes(b, s int) []byte {
	base := (b*osSlots + s) * OSEntrySize
	return x.dir[base : base+OSEntrySize]
}

// publish writes (or rewrites) its directory entry.
func (x *osIndex) publish(it *item) {
	if it.nbytes > osMaxValLen {
		return
	}
	w := x.segWindow(int(it.chunk.seg))
	if w == nil {
		return
	}
	h := osKeyHash(it.key())
	b := OSBucketOf(h, osBuckets)
	slot := -1
	for s := 0; s < osSlots; s++ {
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
	if slot < 0 {
		// Full bucket: displace a hash-chosen victim. The displaced key
		// falls back to the AM path on its next one-sided attempt.
		slot = int(h>>57) % osSlots
	}
	sb := x.slotBytes(b, slot)
	le := binary.LittleEndian
	le.PutUint64(sb, h)
	le.PutUint64(sb[8:], 2*it.casID)
	le.PutUint64(sb[16:], w.Desc().Addr+uint64(it.chunk.off))
	le.PutUint64(sb[24:], uint64(it.expireAt))
	le.PutUint32(sb[32:], uint32(w.Desc().RKey))
	le.PutUint32(sb[36:], uint32(it.nkey)<<24|it.nbytes)
	le.PutUint32(sb[40:], it.flags)
	le.PutUint32(sb[44:], 0)
}

// unpublish invalidates its entry (if it still owns one): the seqlock
// goes odd before the slot empties, so a client mid-read fails its
// re-validation instead of trusting a recycled chunk.
func (x *osIndex) unpublish(it *item) {
	h := osKeyHash(it.key())
	b := OSBucketOf(h, osBuckets)
	for s := 0; s < osSlots; s++ {
		sb := x.slotBytes(b, s)
		le := binary.LittleEndian
		if le.Uint64(sb) != h {
			continue
		}
		le.PutUint64(sb[8:], le.Uint64(sb[8:])|1) // odd: invalid
		le.PutUint64(sb, 0)
		le.PutUint64(sb[16:], 0)
		le.PutUint32(sb[36:], 0)
		break
	}
}

// wipe empties the whole directory (flush_all).
func (x *osIndex) wipe() { clear(x.dir) }

// close revokes remote access to the directory and every slab segment
// published through it.
func (x *osIndex) close() {
	x.dirWin.Close()
	for _, w := range x.segWins {
		if w != nil {
			w.Close()
		}
	}
}

// --- Server integration ------------------------------------------------

// EnableOneSided arms the one-sided GET index on a UCR-serving server:
// the store starts publishing directory entries. Call after ServeUCR,
// before traffic.
func (s *Server) EnableOneSided() error {
	if s.ucrRT == nil {
		return errNoUCR
	}
	x, err := newOSIndex(s.ucrRT, s.store.arena)
	if err != nil {
		return err
	}
	s.store.pub = x
	return nil
}
