package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// Client half of the one-sided GET path: resolve key → directory entry
// with an RDMA read of the entry's bucket, RDMA-read the [key][value]
// bytes straight out of the server's slab memory, and validate with a
// seqlock re-read of the entry — the seq must be even and unchanged
// across the value fetch, and the key bytes must match. Anything else
// (miss, displaced entry, oversize, expiry, conflict, UD endpoint)
// falls back to the two-sided AM path, which is always correct.
//
// The fallback ladder, cheapest exit first:
//  1. path not armed (or the server published nothing) → AM
//  2. bucket read finds no entry for the key           → AM (miss or displaced)
//  3. entry expired by the client's clock              → AM
//  4. seqlock conflict after one bucket-refresh retry  → AM
//  5. validated                                        → serve locally, hit

// osConflictRetries is how many times a conflicting read refreshes the
// bucket and tries again before giving up on the fast path.
const osConflictRetries = 1

// osState is the transport's one-sided view of one server; the zero
// value is the disarmed path. Outcomes are counted in PathStats:
// validated Hits, Fallbacks to the AM path, seqlock conflicts as Retries.
type osState struct {
	enabled bool // the server published its directory (see UCRTransport.Arm)
	desc    memcached.OSDesc

	// cache maps key → (entry, slot) from earlier bucket reads; stale
	// entries fail validation and are refreshed, so it is only a
	// round-trip saver, never a correctness input.
	cache map[string]osCached

	kvBuf     []byte // landing space for [key][value] reads
	bucketBuf []byte // landing space for bucket/entry reads
}

type osCached struct {
	ent  memcached.OSEntry
	slot int
}

// arm adopts the directory descriptor the capability exchange returned.
func (o *osState) arm(desc memcached.OSDesc) {
	*o = osState{
		enabled:   true,
		desc:      desc,
		cache:     make(map[string]osCached),
		bucketBuf: make([]byte, desc.Slots*memcached.OSEntrySize),
	}
}

// readDir RDMA-reads n bytes of the directory window at off into buf.
func (t *UCRTransport) readDir(clk *simnet.VClock, buf []byte, off int, ctr *ucr.Counter, target uint64) bool {
	if err := t.ep.Get(clk, buf, t.os.desc.Dir, off, ctr); err != nil {
		return false
	}
	return t.ctx.WaitCounter(clk, ctr, target, t.timeout) == nil
}

// findEntry reads the key's bucket and scans it. ok=false: no entry.
func (t *UCRTransport) findEntry(clk *simnet.VClock, h uint64, bucket int, ctr *ucr.Counter, waited *uint64) (memcached.OSEntry, int, bool) {
	base := bucket * t.os.desc.Slots * memcached.OSEntrySize
	*waited++
	if !t.readDir(clk, t.os.bucketBuf, base, ctr, *waited) {
		return memcached.OSEntry{}, 0, false
	}
	for s := 0; s < t.os.desc.Slots; s++ {
		e := memcached.DecodeOSEntry(t.os.bucketBuf[s*memcached.OSEntrySize:])
		if e.KeyHash == h {
			return e, s, true
		}
	}
	return memcached.OSEntry{}, 0, false
}

// oneSidedGet attempts the fast path. ok=true means a validated hit was
// served (value aliases a transport buffer only if copied — it is always
// an owned copy here). ok=false means the caller must run the AM path.
func (t *UCRTransport) oneSidedGet(clk *simnet.VClock, key string, lend []byte) (value []byte, flags uint32, cas uint64, ok bool) {
	if !t.os.enabled || len(key) == 0 {
		return nil, 0, 0, false
	}
	st := &t.paths.By[PathOneSided]

	h := memcached.OSKeyHash(key)
	bucket := memcached.OSBucketOf(h, t.os.desc.Buckets)
	ctr := t.rt.NewCounter()
	defer t.rt.FreeCounter(ctr)
	var waited uint64 // running wait target on ctr

	ent, slot, have := memcached.OSEntry{}, 0, false
	if c, hit := t.os.cache[key]; hit {
		ent, slot, have = c.ent, c.slot, true
	}
	for attempt := 0; ; attempt++ {
		if !have {
			ent, slot, have = t.findEntry(clk, h, bucket, ctr, &waited)
			if !have {
				delete(t.os.cache, key)
				st.Fallbacks++
				return nil, 0, 0, false // miss or displaced: AM decides
			}
		}
		if !ent.Live() || ent.KeyLen != len(key) ||
			(ent.ExpireAt != 0 && clk.Now() >= ent.ExpireAt) {
			// Dead, mismatched, or expired by the client's own clock.
			// Accepting only when now < ExpireAt keeps the read
			// linearizable: the hit happened while the item was live.
			delete(t.os.cache, key)
			st.Fallbacks++
			return nil, 0, 0, false
		}

		// Value fetch + entry re-read, posted back to back: the simulated
		// HCA executes reads in post order, so the re-read observes the
		// directory at-or-after the value bytes were taken.
		kvLen := ent.KeyLen + ent.ValLen
		if cap(t.os.kvBuf) < kvLen {
			t.os.kvBuf = make([]byte, kvLen)
		}
		kv := t.os.kvBuf[:kvLen]
		chunkDesc := ucr.WindowDesc{Addr: ent.Addr, RKey: ent.RKey, Len: kvLen}
		if err := t.ep.Get(clk, kv, chunkDesc, 0, ctr); err != nil {
			st.Fallbacks++
			return nil, 0, 0, false
		}
		waited++
		slotOff := (bucket*t.os.desc.Slots + slot) * memcached.OSEntrySize
		entBuf := t.os.bucketBuf[:memcached.OSEntrySize]
		waited++
		if !t.readDir(clk, entBuf, slotOff, ctr, waited) {
			st.Fallbacks++
			return nil, 0, 0, false
		}
		reread := memcached.DecodeOSEntry(entBuf)
		if reread.Seq == ent.Seq && reread.Live() &&
			reread.Addr == ent.Addr && reread.KeyLen == ent.KeyLen &&
			reread.ValLen == ent.ValLen && string(kv[:ent.KeyLen]) == key {
			// Validated: copy the value out of the landing buffer (the
			// client-side memcpy the AM eager path also pays).
			out := lend
			if cap(out) < ent.ValLen {
				out = make([]byte, ent.ValLen)
			}
			out = out[:ent.ValLen]
			copy(out, kv[ent.KeyLen:])
			clk.Advance(simnet.BytesDuration(ent.ValLen, t.rt.Config().PackBytesPerSec))
			t.os.cache[key] = osCached{ent: ent, slot: slot}
			st.Hits++
			return out, ent.Flags, reread.CAS(), true
		}
		// Conflict: the entry moved under us (overwrite, delete,
		// eviction, or a stale cache hit). Refresh the bucket and retry
		// once; then let the AM path settle it.
		st.Retries++
		delete(t.os.cache, key)
		have = false
		if attempt >= osConflictRetries {
			st.Fallbacks++
			return nil, 0, 0, false
		}
	}
}
