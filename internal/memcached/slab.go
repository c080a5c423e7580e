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
)

// ErrNoMemory is returned when the arena is exhausted and eviction is
// disabled or found nothing evictable.
var ErrNoMemory = errors.New("memcached: out of memory storing object")

// chunk names one allocation: a byte range within a slab page. page/off
// locate it inside the arena's page list so the one-sided index can
// compute its RDMA-visible address (the capped buf slice hides the page
// offset from capacity arithmetic).
type chunk struct {
	class int
	buf   []byte // full chunk capacity
	page  int    // index into the arena's page list
	off   int    // byte offset of buf within that page
}

func (c chunk) valid() bool { return c.buf != nil }

// slabClass is one size class: its chunk size and free list.
type slabClass struct {
	size  int
	free  []chunk
	pages int
}

// SlabArena is the memcached slab allocator: memory is grabbed in 1 MB
// pages, each page is assigned to a size class and carved into equal
// chunks. Freed chunks return to their class's free list — classes never
// shrink (the fragmentation behaviour the paper's related-work section
// points out makes client-side address caching unsafe).
//
// The arena is shared by every store shard and guards its free lists
// with its own short mutex; the class geometry (count and sizes) is
// immutable after construction and read without it. LRU ordering lives
// with the shards (lruTable), not here — eviction policy is the store
// layer's.
type SlabArena struct {
	classes    []slabClass
	limitBytes int64

	mu        sync.Mutex // guards free lists, pages, usedBytes
	usedBytes int64
	pages     [][]byte // every page ever grabbed, indexed by chunk.page
}

// NewSlabArena builds an arena with the given memory limit and the
// default class geometry. maxItemSize bounds the largest chunk class
// (memcached's 1 MB item limit).
func NewSlabArena(limitBytes int64, maxItemSize int) *SlabArena {
	if maxItemSize <= 0 || maxItemSize > slabPageSize {
		maxItemSize = slabPageSize
	}
	a := &SlabArena{limitBytes: limitBytes}
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

// NumClasses reports the number of size classes.
func (a *SlabArena) NumClasses() int { return len(a.classes) }

// ClassSize reports the chunk size of class i.
func (a *SlabArena) ClassSize(i int) int { return a.classes[i].size }

// ClassFor picks the smallest class whose chunks fit n bytes.
// ok=false means n exceeds the largest class (item too large).
func (a *SlabArena) ClassFor(n int) (int, bool) {
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

// UsedBytes reports bytes of pages grabbed from the limit.
func (a *SlabArena) UsedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usedBytes
}

// Alloc takes a chunk that fits n bytes. It does not evict; the store
// layer owns eviction policy. ErrNoMemory means "free a chunk first".
func (a *SlabArena) Alloc(n int) (chunk, error) {
	ci, ok := a.ClassFor(n)
	if !ok {
		return chunk{}, fmt.Errorf("memcached: object too large for cache (%d bytes)", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cl := &a.classes[ci]
	if len(cl.free) == 0 {
		if err := a.growClassLocked(ci); err != nil {
			return chunk{}, err
		}
	}
	c := cl.free[len(cl.free)-1]
	cl.free = cl.free[:len(cl.free)-1]
	return c, nil
}

// growClassLocked grabs a page for class ci and carves it.
func (a *SlabArena) growClassLocked(ci int) error {
	if a.usedBytes+slabPageSize > a.limitBytes {
		return ErrNoMemory
	}
	a.usedBytes += slabPageSize
	cl := &a.classes[ci]
	cl.pages++
	page := make([]byte, slabPageSize)
	pi := len(a.pages)
	a.pages = append(a.pages, page)
	for off := 0; off+cl.size <= slabPageSize; off += cl.size {
		cl.free = append(cl.free, chunk{class: ci, buf: page[off : off+cl.size : off+cl.size], page: pi, off: off})
	}
	return nil
}

// PageBytes exposes page i's full backing slice (the one-sided index
// registers whole pages as RDMA windows).
func (a *SlabArena) PageBytes(i int) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pages[i]
}

// Free returns a chunk to its class.
func (a *SlabArena) Free(c chunk) {
	if !c.valid() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cl := &a.classes[c.class]
	cl.free = append(cl.free, c)
}

// FreeChunks reports free chunks in class i (for tests/stats).
func (a *SlabArena) FreeChunks(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.classes[i].free)
}

// ClassPages reports pages assigned to class i.
func (a *SlabArena) ClassPages(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classes[i].pages
}
