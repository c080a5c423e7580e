package memcached

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// place is where a chunk sits in the modeled arena.
type place struct{ page, off int }

// precarve is the arena as it was before pages were carved lazily, kept
// as the reference for the order chunks are handed out in: a new page is
// carved whole into its class's free list at growth, lowest offset
// first, Alloc pops the list's tail and Free pushes onto it.
type precarve struct {
	limit, used int64
	pages       int
	free        [][]place // per class
}

func (r *precarve) alloc(ci, size int) (place, error) {
	if len(r.free[ci]) == 0 {
		if r.used+slabPageSize > r.limit {
			return place{}, ErrNoMemory
		}
		r.used += slabPageSize
		for off := 0; off+size <= slabPageSize; off += size {
			r.free[ci] = append(r.free[ci], place{r.pages, off})
		}
		r.pages++
	}
	n := len(r.free[ci])
	p := r.free[ci][n-1]
	r.free[ci] = r.free[ci][:n-1]
	return p, nil
}

// TestSlabCarveOrderUnchanged: carving on demand hands out every chunk
// at the (page, off) the pre-carved free list would have, through a
// seeded run of allocs and frees over several classes — small chunks
// many to a segment, chunks near and above the segment cap, and whole
// pages — up to and past the memory limit.
func TestSlabCarveOrderUnchanged(t *testing.T) {
	sizes := []int{100, 1000, 9000, 40_000, 70_000, 300_000, slabPageSize}
	a := newSlabArena(12<<20, 0)
	ref := &precarve{limit: 12 << 20, free: make([][]place, a.numClasses())}
	rng := rand.New(rand.NewSource(7))
	var live []chunk
	for step := 0; step < 30_000; step++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(live))
			c := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.free(c)
			ref.free[c.class] = append(ref.free[c.class], place{a.segment(c.seg).page, c.off})
			continue
		}
		n := sizes[rng.Intn(len(sizes))]
		ci, _ := a.classFor(n)
		c, err := a.alloc(n)
		want, wantErr := ref.alloc(ci, a.classSize(ci))
		if err != wantErr {
			t.Fatalf("step %d: Alloc(%d) err = %v, pre-carved %v", step, n, err, wantErr)
		}
		if err != nil {
			continue
		}
		seg := a.segment(c.seg)
		if got := (place{seg.page, c.off}); got != want {
			t.Fatalf("step %d: Alloc(%d) at %+v, pre-carved at %+v", step, n, got, want)
		}
		if at := c.off - seg.off; at < 0 || at+a.classSize(ci) > len(seg.buf) || len(seg.buf) > max(slabSegSize, a.classSize(ci)) {
			t.Fatalf("step %d: chunk at page offset %d outside its segment [%d, +%d)", step, c.off, seg.off, len(seg.buf))
		}
		live = append(live, c)
	}
	for ci := range ref.free {
		if got, want := a.freeChunks(ci), len(ref.free[ci]); got != want {
			t.Errorf("class %d: FreeChunks = %d, pre-carved free list %d", ci, got, want)
		}
	}
	if a.bytesUsed() != ref.used {
		t.Errorf("UsedBytes = %d, pre-carved %d", a.bytesUsed(), ref.used)
	}
}

// TestSlabHostBytesFollowCarving: one 64 B item costs the host one
// segment, not a page, while the model still charges the whole page.
func TestSlabHostBytesFollowCarving(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s, "set k 0 0 64\r\n"+strings.Repeat("v", 64)+"\r\nstats slabs\r\n")
	a := s.arena
	host := 0
	for _, seg := range a.segs {
		host += len(seg.buf)
	}
	if host > slabSegSize {
		t.Errorf("one 64 B item holds %d B of host segments, want <= %d", host, slabSegSize)
	}
	if a.bytesUsed() != slabPageSize {
		t.Errorf("UsedBytes = %d, want one page", a.bytesUsed())
	}
	ci, _ := a.classFor(len("k") + 64 + itemOverhead)
	perPage := slabPageSize / a.classSize(ci)
	for _, stat := range []string{
		fmt.Sprintf("STAT %d:total_pages 1\r\n", ci+1),
		fmt.Sprintf("STAT %d:total_chunks %d\r\n", ci+1, perPage),
		fmt.Sprintf("STAT %d:used_chunks 1\r\n", ci+1),
		fmt.Sprintf("STAT %d:free_chunks %d\r\n", ci+1, perPage-1),
		"STAT active_slabs 1\r\n",
		"STAT total_malloced 1048576\r\n",
	} {
		if !strings.Contains(out, stat) {
			t.Errorf("stats slabs lacks %q:\n%s", stat, out)
		}
	}
}
