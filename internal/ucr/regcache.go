package ucr

import (
	"sync"

	"repro/internal/simnet"
	"repro/internal/verbs"
)

// regCache is the MVAPICH-style registration cache the paper's UCR
// inherits (§I-B cites the buffer-management research UCR reuses):
// pinning memory is expensive, and large-message workloads resend the
// same buffers, so registrations are kept and reused instead of being
// torn down after every rendezvous. A bounded FIFO keeps the pinned
// footprint in check.
//
// Entries are refcounted: every in-flight rendezvous send holds a
// reference on its MR, so FIFO eviction of a busy entry only drops it
// from the lookup table — deregistration is deferred until the last
// in-flight operation releases it. Without this, evicting a hot entry
// mid-transfer would invalidate the rkey under a peer's RDMA read.
//
// Like real registration caches, correctness relies on cached buffers
// not being freed and reallocated elsewhere while cached (production
// implementations hook the allocator for invalidation; here the cache
// key is the buffer's first-element address plus its length).
type regCache struct {
	mu      sync.Mutex
	entries map[regKey]*regEntry
	byMR    map[*verbs.MR]*regEntry
	order   []regKey
	cap     int

	hits, misses   uint64
	deferredDeregs uint64
}

type regKey struct {
	ptr *byte
	len int
}

type regEntry struct {
	mr      *verbs.MR
	refs    int  // in-flight operations using this MR
	evicted bool // dropped from the FIFO; deregister once refs hit 0
}

func newRegCache(capEntries int) *regCache {
	return &regCache{
		entries: make(map[regKey]*regEntry),
		byMR:    make(map[*verbs.MR]*regEntry),
		cap:     capEntries,
	}
}

func keyOf(buf []byte) regKey {
	return regKey{ptr: &buf[0], len: len(buf)}
}

// registerCached resolves an MR for buf (never empty: a rendezvous send
// carries more than the eager threshold): from the cache (free) or by
// registering (cost charged to clk) and caching, evicting FIFO-oldest
// entries beyond capacity. The caller releases its reference with
// releaseCached when its operation completes.
func (rt *Runtime) registerCached(buf []byte, clk *simnet.VClock) (*verbs.MR, error) {
	rc := rt.regs
	k := keyOf(buf)
	rc.mu.Lock()
	if e, ok := rc.entries[k]; ok {
		rc.hits++
		e.refs++
		rc.mu.Unlock()
		return e.mr, nil
	}
	rc.misses++
	rc.mu.Unlock()

	mr, err := rt.hca.RegisterMR(rt.pd, buf, clk)
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	e := &regEntry{mr: mr, refs: 1}
	rc.entries[k] = e
	rc.byMR[mr] = e
	rc.order = append(rc.order, k)
	var evicted []*verbs.MR
	for len(rc.order) > rc.cap {
		old := rc.order[0]
		rc.order = rc.order[1:]
		victim, ok := rc.entries[old]
		if !ok {
			continue
		}
		delete(rc.entries, old)
		victim.evicted = true
		if victim.refs == 0 {
			delete(rc.byMR, victim.mr)
			evicted = append(evicted, victim.mr)
		} else {
			rc.deferredDeregs++
		}
	}
	rc.mu.Unlock()
	for _, v := range evicted {
		rt.hca.DeregisterMR(v)
	}
	return mr, nil
}

// releaseCached drops one in-flight reference on a cache-owned MR. If
// the entry was FIFO-evicted while busy, the last release performs the
// deferred deregistration.
func (rt *Runtime) releaseCached(mr *verbs.MR) {
	rc := rt.regs
	rc.mu.Lock()
	e := rc.byMR[mr]
	if e == nil {
		rc.mu.Unlock()
		return
	}
	if e.refs > 0 {
		e.refs--
	}
	dereg := e.evicted && e.refs == 0
	if dereg {
		delete(rc.byMR, mr)
	}
	rc.mu.Unlock()
	if dereg {
		rt.hca.DeregisterMR(mr)
	}
}

// RegCacheStats reports cache effectiveness.
func (rt *Runtime) RegCacheStats() (hits, misses uint64) {
	rt.regs.mu.Lock()
	defer rt.regs.mu.Unlock()
	return rt.regs.hits, rt.regs.misses
}
