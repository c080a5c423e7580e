package ucr

import (
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
	entries map[regKey]*regEntry
	order   []regKey
	cap     int

	hits, misses uint64
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
		cap:     capEntries,
	}
}

func keyOf(buf []byte) regKey {
	return regKey{ptr: &buf[0], len: len(buf)}
}

// registerCached resolves a registration for buf (never empty: a
// rendezvous send carries more than the eager threshold): from the cache
// (free) or by registering (cost charged to clk) and caching, evicting
// FIFO-oldest entries beyond capacity. The caller holds the returned
// entry for its operation and hands it to releaseCached when the
// operation completes.
func (rt *Runtime) registerCached(buf []byte, clk *simnet.VClock) (*regEntry, error) {
	rc := rt.regs
	k := keyOf(buf)
	if e, ok := rc.entries[k]; ok {
		rc.hits++
		e.refs++
		return e, nil
	}
	rc.misses++

	mr, err := rt.hca.RegisterMR(rt.pd, buf, clk)
	if err != nil {
		return nil, err
	}
	e := &regEntry{mr: mr, refs: 1}
	rc.entries[k] = e
	rc.order = append(rc.order, k)
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
			rt.hca.DeregisterMR(victim.mr)
		}
	}
	return e, nil
}

// releaseCached drops one in-flight reference on a cache entry. If the
// entry was FIFO-evicted while busy, the last release performs the
// deferred deregistration.
func (rt *Runtime) releaseCached(e *regEntry) {
	if e.refs > 0 {
		e.refs--
	}
	if e.evicted && e.refs == 0 {
		rt.hca.DeregisterMR(e.mr)
	}
}

// RegCacheStats reports cache effectiveness.
func (rt *Runtime) RegCacheStats() (hits, misses uint64) { return rt.regs.hits, rt.regs.misses }
