package memcached

import (
	"errors"
	"fmt"
	"sync"
)

// Slab allocation constants, matching memcached 1.4-era defaults.
const (
	// slabPageSize is the unit of memory the arena grabs at a time.
	slabPageSize = 1 << 20
	// minChunkSize is the smallest chunk class.
	minChunkSize = 96
	// growthFactor is the chunk-size ratio between adjacent classes.
	growthFactor = 1.25
	// chunkAlign keeps chunk sizes 8-byte aligned.
	chunkAlign = 8
	// slabSegSize caps a host segment: a page's chunks get host bytes in
	// runs of at most this size, each made on its first carve. A server
	// holding a few dozen small items (a fleet member) pays one segment.
	slabSegSize = 16 << 10
)

// ErrNoMemory is returned when the arena is exhausted and eviction is
// disabled or found nothing evictable.
var ErrNoMemory = errors.New("memcached: out of memory storing object")

// chunk names one allocation: a byte range within a slab page. off
// locates it inside its page (the modeled address); seg names the host
// segment holding its bytes, which the one-sided index registers as the
// chunk's RDMA window (the capped buf slice hides the segment offset
// from capacity arithmetic).
type chunk struct {
	class int
	buf   []byte // full chunk capacity
	seg   int    // index into the arena's segment list
	off   int    // byte offset of buf within its page
}

func (c chunk) valid() bool { return c.buf != nil }

// slabSeg is one host segment: a run of a page's chunks and where the
// run starts in that page.
type slabSeg struct {
	buf  []byte
	page int
	off  int
}

// slabClass is one size class: its chunk size, free list and its newest
// page's carving state. Only the newest page can hold uncarved chunks: a
// class grows only when its free list is empty and nothing is left to
// carve.
type slabClass struct {
	size  int
	free  []chunk
	pages int

	page  int // arena index of the newest page
	carve int // chunks of that page still to carve, carved top down
	seg   int // arena index of the newest segment
	segLo int // chunk index within the page where that segment starts
}

// slabArena is the memcached slab allocator: memory is grabbed in 1 MB
// pages, each page is assigned to a size class and carved into equal
// chunks. Freed chunks return to their class's free list — classes never
// shrink (the fragmentation behaviour the paper's related-work section
// points out makes client-side address caching unsafe).
//
// The page is the modeled unit — the memory limit, usedBytes, per-class
// page counts and `stats slabs` all count whole pages — but its host
// bytes follow what is live: a new page only records how many chunks it
// has left to carve, Alloc carves the highest one when the free list is
// empty (the order a pre-carved list would pop in), and a chunk's bytes
// come from a host segment of at most slabSegSize made on the segment's
// first carve (a chunk that large is a segment of its own).
//
// The arena is shared by every store shard and guards its free lists
// with its own short mutex; the class geometry (count and sizes) is
// immutable after construction and read without it. LRU ordering lives
// with the shards (lruTable), not here — eviction policy is the store
// layer's.
type slabArena struct {
	classes    []slabClass
	limitBytes int64

	mu        sync.Mutex // guards free lists, carving state, segs, usedBytes
	usedBytes int64
	segs      []slabSeg // every host segment made, indexed by chunk.seg
}

// newSlabArena builds an arena with the given memory limit and the
// default class geometry. maxItemSize bounds the largest chunk class
// (memcached's 1 MB item limit).
func newSlabArena(limitBytes int64, maxItemSize int) *slabArena {
	if maxItemSize <= 0 || maxItemSize > slabPageSize {
		maxItemSize = slabPageSize
	}
	a := &slabArena{limitBytes: limitBytes}
	size := minChunkSize
	for size < maxItemSize {
		a.classes = append(a.classes, slabClass{size: size})
		next := int(float64(size) * growthFactor)
		next = (next + chunkAlign - 1) / chunkAlign * chunkAlign
		if next <= size {
			next = size + chunkAlign
		}
		size = next
	}
	a.classes = append(a.classes, slabClass{size: maxItemSize})
	return a
}

// numClasses reports the number of size classes.
func (a *slabArena) numClasses() int { return len(a.classes) }

// classSize reports the chunk size of class i.
func (a *slabArena) classSize(i int) int { return a.classes[i].size }

// classFor picks the smallest class whose chunks fit n bytes.
// ok=false means n exceeds the largest class (item too large).
func (a *slabArena) classFor(n int) (int, bool) {
	// Classes grow geometrically; binary search.
	lo, hi := 0, len(a.classes)-1
	if n > a.classes[hi].size {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if a.classes[mid].size < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, true
}

// bytesUsed reports bytes of pages grabbed from the limit.
func (a *slabArena) bytesUsed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usedBytes
}

// alloc takes a chunk that fits n bytes: the most recently freed one of
// its class, else the class's next uncarved chunk. It does not evict; the
// store layer owns eviction policy. ErrNoMemory means "free a chunk
// first".
func (a *slabArena) alloc(n int) (chunk, error) {
	ci, ok := a.classFor(n)
	if !ok {
		return chunk{}, fmt.Errorf("memcached: object too large for cache (%d bytes)", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cl := &a.classes[ci]
	if k := len(cl.free); k > 0 {
		c := cl.free[k-1]
		cl.free = cl.free[:k-1]
		return c, nil
	}
	if cl.carve == 0 {
		if err := a.growClassLocked(ci); err != nil {
			return chunk{}, err
		}
	}
	return a.carveLocked(ci), nil
}

// growClassLocked grabs a page for class ci. No host bytes are made
// here: the page only records that it has ⌊page/size⌋ chunks to carve.
func (a *slabArena) growClassLocked(ci int) error {
	if a.usedBytes+slabPageSize > a.limitBytes {
		return ErrNoMemory
	}
	cl := &a.classes[ci]
	cl.pages++
	cl.page = int(a.usedBytes / slabPageSize)
	a.usedBytes += slabPageSize
	cl.carve = slabPageSize / cl.size
	cl.segLo = cl.carve // no segment of this page yet
	return nil
}

// carveLocked carves the highest uncarved chunk of class ci's newest
// page, making its segment's host bytes when it is the segment's first.
func (a *slabArena) carveLocked(ci int) chunk {
	cl := &a.classes[ci]
	cl.carve--
	j := cl.carve
	if j < cl.segLo {
		perSeg := max(1, slabSegSize/cl.size)
		lo := j / perSeg * perSeg
		a.segs = append(a.segs, slabSeg{buf: make([]byte, (j+1-lo)*cl.size), page: cl.page, off: lo * cl.size})
		cl.seg, cl.segLo = len(a.segs)-1, lo
	}
	at := (j - cl.segLo) * cl.size
	seg := a.segs[cl.seg].buf
	return chunk{class: ci, buf: seg[at : at+cl.size : at+cl.size], seg: cl.seg, off: j * cl.size}
}

// segment reports host segment i: its bytes and their offset in their
// page (the one-sided index registers each segment as an RDMA window).
func (a *slabArena) segment(i int) slabSeg {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.segs[i]
}

// free returns a chunk to its class.
func (a *slabArena) free(c chunk) {
	if !c.valid() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cl := &a.classes[c.class]
	cl.free = append(cl.free, c)
}

// freeChunks reports the chunks of class i not handed out — freed or
// not yet carved (for tests/stats).
func (a *slabArena) freeChunks(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.classes[i].free) + a.classes[i].carve
}

// classPages reports pages assigned to class i.
func (a *slabArena) classPages(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classes[i].pages
}
