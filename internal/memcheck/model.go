package memcheck

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Violation is one reference-model disagreement (or cross-check
// mismatch), anchored at the offending record's sequence number.
type Violation struct {
	seq uint64 // 0 when not tied to one record (cross-check)
	msg string
}

func (v *Violation) Error() string {
	if v.seq != 0 {
		return fmt.Sprintf("seq %d: %s", v.seq, v.msg)
	}
	return v.msg
}

// modelItem mirrors one live cache entry.
type modelItem struct {
	value    []byte
	flags    uint32
	cas      uint64
	expireAt simnet.Time
	setAt    simnet.Time
}

func (m *modelItem) live(now, horizon simnet.Time) bool {
	if m.expireAt != 0 && m.expireAt <= now {
		return false
	}
	if horizon != 0 && m.setAt < horizon {
		return false
	}
	return true
}

// maxRelativeExpiry mirrors the engine's 30-day relative/absolute
// exptime cutover.
const maxRelativeExpiry = 60 * 60 * 24 * 30

func modelExpiry(exptime int64, setAt simnet.Time) simnet.Time {
	switch {
	case exptime == 0:
		return 0
	case exptime <= maxRelativeExpiry:
		return setAt + simnet.Time(exptime)*simnet.Second
	default:
		return simnet.Time(exptime) * simnet.Second
	}
}

// model replays the engine's recorded history against plain-map
// semantics. The input is the Seq-sorted record list — a total order,
// because every transition is emitted inside its op, under the store's
// one owner — so the whole check is one fold over the history.
type model struct {
	items   map[string]*modelItem
	horizon simnet.Time
	casSeen map[uint64]bool

	// lastEvict holds the tolerance window for self-eviction: an
	// allocation inside replace/cas/concat/incr can evict the very item
	// the op just looked up (the engine's victim scan does not skip the
	// key being operated on). The evict record immediately precedes the
	// op's own record in the per-key subsequence (both happen in one
	// engine call), so the window closes at the next
	// record for that key.
	lastEvict map[string]*modelItem
}

// checkModel replays recs and returns the first divergence, or nil.
func checkModel(recs []*memcached.OpRecord) *Violation {
	m := &model{
		items:     make(map[string]*modelItem),
		casSeen:   make(map[uint64]bool),
		lastEvict: make(map[string]*modelItem),
	}
	for _, r := range recs {
		if v := m.apply(r); v != nil {
			return v
		}
	}
	return nil
}

func fail(r *memcached.OpRecord, format string, args ...any) *Violation {
	return &Violation{seq: r.Seq, msg: fmt.Sprintf("%s %q: ", r.Kind, r.Key) + fmt.Sprintf(format, args...)}
}

func (m *model) apply(r *memcached.OpRecord) *Violation {
	var v *Violation
	switch r.Kind {
	case recGet:
		v = m.applyGet(r)
	case recSet:
		v = m.applySet(r)
	case recAdd:
		v = m.applyAdd(r)
	case recReplace:
		v = m.applyReplace(r)
	case recCas:
		v = m.applyCas(r)
	case recAppend, recPrepend:
		v = m.applyConcat(r)
	case recDelete:
		v = m.applyDelete(r)
	case recIncr, recDecr:
		v = m.applyIncrDecr(r)
	case recTouch:
		v = m.applyTouch(r)
	case recFlushAll:
		if r.Horizon != r.Now+1 {
			return fail(r, "horizon %d, want now+1 = %d", r.Horizon, r.Now+1)
		}
		if r.Horizon > m.horizon {
			m.horizon = r.Horizon
		}
		return nil
	case recEvict:
		return m.applyEvict(r)
	case recExpire:
		v = m.applyExpire(r)
	default:
		return fail(r, "unknown record kind %d", r.Kind)
	}
	// Any explicit operation on the key closes its self-eviction window
	// (the evict record is emitted in the same critical section as the
	// op that caused it, so adjacency in the per-key subsequence is
	// guaranteed).
	delete(m.lastEvict, r.Key)
	return v
}

// lookup returns the key's live entry, or nil.
func (m *model) lookup(key string, now simnet.Time) *modelItem {
	it := m.items[key]
	if it == nil || !it.live(now, m.horizon) {
		return nil
	}
	return it
}

// checkNewCAS enforces the one global CAS invariant the record order
// supports: every assigned id is globally unique. (Monotonicity in Seq
// order does NOT hold: UCR pipelined sets draw their id at header
// allocation but commit in per-endpoint FIFO order, so two endpoints'
// commits can sequence opposite to their ids.)
func (m *model) checkNewCAS(r *memcached.OpRecord) *Violation {
	if r.NewCAS == 0 {
		return fail(r, "stored without assigning a CAS id")
	}
	if m.casSeen[r.NewCAS] {
		return fail(r, "CAS id %d reused", r.NewCAS)
	}
	m.casSeen[r.NewCAS] = true
	return nil
}

// storeFresh installs the record's resulting item after validating the
// derived fields a fresh store must satisfy.
func (m *model) storeFresh(r *memcached.OpRecord) *Violation {
	if v := m.checkNewCAS(r); v != nil {
		return v
	}
	if r.SetAt > r.Now {
		return fail(r, "setAt %d after op time %d", r.SetAt, r.Now)
	}
	if want := modelExpiry(r.Exptime, r.SetAt); r.ExpireAt != want {
		return fail(r, "expireAt %d, want %d (exptime %d at %d)", r.ExpireAt, want, r.Exptime, r.SetAt)
	}
	m.items[r.Key] = &modelItem{
		value: r.Value, flags: r.Flags, cas: r.NewCAS,
		expireAt: r.ExpireAt, setAt: r.SetAt,
	}
	return nil
}

// storeFailureOK reports whether a non-Stored result is one a store-
// class op may legitimately produce after its condition passed (the
// allocation failed).
func storeFailureOK(res memcached.StoreResult) bool {
	return res == memcached.TooLarge || res == memcached.OOM
}

func (m *model) applyGet(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	if !r.Hit {
		if it != nil {
			return fail(r, "miss, but model holds live value %q (cas %d)", it.value, it.cas)
		}
		return nil
	}
	if it == nil {
		if m.items[r.Key] != nil {
			return fail(r, "hit returned expired/flushed item (value %q)", r.Value)
		}
		return fail(r, "hit for a key the model does not hold")
	}
	if !bytes.Equal(r.Value, it.value) {
		return fail(r, "stale value %q, model %q", r.Value, it.value)
	}
	if r.Flags != it.flags {
		return fail(r, "flags %d, model %d", r.Flags, it.flags)
	}
	if r.OldCAS != it.cas {
		return fail(r, "cas %d, model %d", r.OldCAS, it.cas)
	}
	return nil
}

func (m *model) applySet(r *memcached.OpRecord) *Violation {
	if r.Res != memcached.Stored {
		if !storeFailureOK(r.Res) {
			return fail(r, "unexpected result %s", r.Res)
		}
		return nil
	}
	return m.storeFresh(r)
}

func (m *model) applyAdd(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	switch r.Res {
	case memcached.Stored:
		if it != nil {
			return fail(r, "add clobbered live value %q", it.value)
		}
		return m.storeFresh(r)
	case memcached.NotStored:
		if it == nil {
			return fail(r, "add refused, but model holds no live value")
		}
		return nil
	default:
		if !storeFailureOK(r.Res) {
			return fail(r, "unexpected result %s", r.Res)
		}
		return nil
	}
}

func (m *model) applyReplace(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	switch r.Res {
	case memcached.Stored:
		// The replace's own allocation may have just evicted the looked-
		// up item (self-eviction); the preceding evict record opened the
		// tolerance window.
		if it == nil && m.lastEvict[r.Key] == nil {
			return fail(r, "replace stored, but model holds no live value")
		}
		return m.storeFresh(r)
	case memcached.NotStored:
		if it != nil {
			return fail(r, "replace refused, but model holds live value %q", it.value)
		}
		return nil
	default:
		if !storeFailureOK(r.Res) {
			return fail(r, "unexpected result %s", r.Res)
		}
		return nil
	}
}

func (m *model) applyCas(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	switch r.Res {
	case memcached.Stored:
		switch {
		case it != nil:
			if it.cas != r.CasReq {
				return fail(r, "cas stored with id %d, model holds %d", r.CasReq, it.cas)
			}
		case m.lastEvict[r.Key] != nil:
			if m.lastEvict[r.Key].cas != r.CasReq {
				return fail(r, "cas stored with id %d after eviction of cas %d", r.CasReq, m.lastEvict[r.Key].cas)
			}
		default:
			return fail(r, "cas stored, but model holds no live value")
		}
		return m.storeFresh(r)
	case memcached.Exists:
		if it == nil {
			return fail(r, "cas EXISTS, but model holds no live value")
		}
		if it.cas == r.CasReq {
			return fail(r, "cas refused although id %d matches", r.CasReq)
		}
		return nil
	case memcached.NotFound:
		if it != nil {
			return fail(r, "cas NOT_FOUND, but model holds live value %q (cas %d)", it.value, it.cas)
		}
		return nil
	default:
		if !storeFailureOK(r.Res) {
			return fail(r, "unexpected result %s", r.Res)
		}
		return nil
	}
}

func (m *model) applyConcat(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	switch r.Res {
	case memcached.NotStored:
		if it != nil {
			return fail(r, "refused, but model holds live value %q", it.value)
		}
		return nil
	case memcached.Stored:
	default:
		if !storeFailureOK(r.Res) {
			return fail(r, "unexpected result %s", r.Res)
		}
		// Allocation failure after the lookup succeeded; the old value
		// stays (or was self-evicted — either way no state change here).
		return nil
	}

	old := it
	checkedInherit := true
	if old == nil {
		ev := m.lastEvict[r.Key]
		if ev == nil || ev.cas != r.OldCAS {
			return fail(r, "stored, but model holds no live value")
		}
		old = ev
		checkedInherit = false // evicted snapshot has no expiry/flags context worth enforcing
	}
	if old.cas != r.OldCAS {
		return fail(r, "old cas %d, model %d", r.OldCAS, old.cas)
	}
	if !bytes.Equal(r.OldValue, old.value) {
		return fail(r, "old value %q, model %q", r.OldValue, old.value)
	}
	var want []byte
	if r.Kind == recPrepend {
		want = append(append([]byte{}, r.Arg...), old.value...)
	} else {
		want = append(append([]byte{}, old.value...), r.Arg...)
	}
	if !bytes.Equal(r.Value, want) {
		return fail(r, "result %q, want %q", r.Value, want)
	}
	if checkedInherit {
		if r.ExpireAt != old.expireAt {
			return fail(r, "expiry %d not inherited (model %d)", r.ExpireAt, old.expireAt)
		}
		if r.Flags != old.flags {
			return fail(r, "flags %d not inherited (model %d)", r.Flags, old.flags)
		}
	}
	if v := m.checkNewCAS(r); v != nil {
		return v
	}
	m.items[r.Key] = &modelItem{
		value: r.Value, flags: r.Flags, cas: r.NewCAS,
		expireAt: r.ExpireAt, setAt: r.SetAt,
	}
	return nil
}

func (m *model) applyDelete(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	if !r.Hit {
		if it != nil {
			return fail(r, "miss, but model holds live value %q", it.value)
		}
		return nil
	}
	if it == nil {
		return fail(r, "deleted a key the model does not hold live")
	}
	if r.OldCAS != it.cas {
		return fail(r, "deleted cas %d, model %d", r.OldCAS, it.cas)
	}
	delete(m.items, r.Key)
	return nil
}

func (m *model) applyIncrDecr(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	if !r.Hit {
		if it != nil {
			return fail(r, "miss, but model holds live value %q", it.value)
		}
		return nil
	}
	old := it
	tolerated := false
	if old == nil {
		ev := m.lastEvict[r.Key]
		if ev == nil || ev.cas != r.OldCAS {
			return fail(r, "hit, but model holds no live value")
		}
		old = ev
		tolerated = true
	}
	if r.OldCAS != old.cas {
		return fail(r, "old cas %d, model %d", r.OldCAS, old.cas)
	}
	if r.Bad {
		if _, err := strconv.ParseUint(string(old.value), 10, 64); err == nil {
			return fail(r, "CLIENT_ERROR on numeric value %q", old.value)
		}
		return nil
	}
	cur, err := strconv.ParseUint(string(old.value), 10, 64)
	if err != nil {
		return fail(r, "arith on non-numeric value %q", old.value)
	}
	if r.OOM {
		// Grow failed; the old item stays (unless self-evicted, which the
		// evict record already applied).
		return nil
	}
	var want uint64
	if r.Kind == recIncr {
		want = cur + r.Delta // wraps at 2^64, like memcached
	} else if r.Delta > cur {
		want = 0
	} else {
		want = cur - r.Delta
	}
	if r.NewNum != want {
		return fail(r, "result %d, want %d (%d %s %d)", r.NewNum, want, cur, r.Kind, r.Delta)
	}
	if string(r.Value) != strconv.FormatUint(want, 10) {
		return fail(r, "stored text %q, want %q", r.Value, strconv.FormatUint(want, 10))
	}
	if v := m.checkNewCAS(r); v != nil {
		return v
	}
	if !tolerated {
		if r.ExpireAt != old.expireAt {
			return fail(r, "expiry %d not preserved (model %d)", r.ExpireAt, old.expireAt)
		}
		if r.SetAt != old.setAt && r.SetAt != r.Now {
			return fail(r, "setAt %d: neither preserved (%d) nor reset to now (%d)", r.SetAt, old.setAt, r.Now)
		}
	}
	m.items[r.Key] = &modelItem{
		value: r.Value, flags: r.Flags, cas: r.NewCAS,
		expireAt: r.ExpireAt, setAt: r.SetAt,
	}
	return nil
}

func (m *model) applyTouch(r *memcached.OpRecord) *Violation {
	it := m.lookup(r.Key, r.Now)
	if !r.Hit {
		if it != nil {
			return fail(r, "miss, but model holds live value %q", it.value)
		}
		return nil
	}
	if it == nil {
		return fail(r, "touched a key the model does not hold live")
	}
	if r.OldCAS != it.cas {
		return fail(r, "touched cas %d, model %d", r.OldCAS, it.cas)
	}
	if want := modelExpiry(r.Exptime, r.Now); r.ExpireAt != want {
		return fail(r, "expireAt %d, want %d", r.ExpireAt, want)
	}
	it.expireAt = r.ExpireAt
	return nil
}

func (m *model) applyEvict(r *memcached.OpRecord) *Violation {
	// Eviction may reap any PRESENT entry, live or expired — presence
	// and identity are what the model can check.
	it := m.items[r.Key]
	if it == nil {
		return fail(r, "evicted a key the model does not hold")
	}
	if r.OldCAS != it.cas {
		return fail(r, "evicted cas %d, model %d", r.OldCAS, it.cas)
	}
	if !bytes.Equal(r.OldValue, it.value) {
		return fail(r, "evicted value %q, model %q", r.OldValue, it.value)
	}
	delete(m.items, r.Key)
	m.lastEvict[r.Key] = it
	return nil
}

func (m *model) applyExpire(r *memcached.OpRecord) *Violation {
	it := m.items[r.Key]
	if it == nil {
		return fail(r, "reaped a key the model does not hold")
	}
	if r.OldCAS != it.cas {
		return fail(r, "reaped cas %d, model %d", r.OldCAS, it.cas)
	}
	if it.live(r.Now, m.horizon) {
		return fail(r, "reaped a live item (expireAt %d, setAt %d, now %d, horizon %d)",
			it.expireAt, it.setAt, r.Now, m.horizon)
	}
	delete(m.items, r.Key)
	return nil
}

// Kind aliases so the checker reads without the package qualifier.
const (
	recGet      = memcached.RecGet
	recSet      = memcached.RecSet
	recAdd      = memcached.RecAdd
	recReplace  = memcached.RecReplace
	recAppend   = memcached.RecAppend
	recPrepend  = memcached.RecPrepend
	recCas      = memcached.RecCas
	recDelete   = memcached.RecDelete
	recIncr     = memcached.RecIncr
	recDecr     = memcached.RecDecr
	recTouch    = memcached.RecTouch
	recFlushAll = memcached.RecFlushAll
	recEvict    = memcached.RecEvict
	recExpire   = memcached.RecExpire
)
