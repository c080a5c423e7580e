package memcached

import "repro/internal/simnet"

// Operation recording: when armed (SetRecorder), the store emits one
// OpRecord per state transition, built and sequenced inside the op.
// Because every op runs under the store's one owner and carries the
// worker's virtual timestamp, the emitted sequence IS a total order of
// the engine's history — the memcheck harness replays it against a
// reference model directly, with no interleaving search. Internal
// transitions (lazy expiry reaps, LRU evictions) are recorded too, so
// the model can mirror the engine exactly instead of tolerating
// unexplained misses.
//
// Recording is off by default (one nil check per operation) and adds
// no virtual-time charges either way: the golden figure tables are
// unaffected.

// OpKind tags one recorded engine transition.
type OpKind uint8

// Record kinds: one per engine entry point, plus the two internal
// transitions (lazy expiry reap, LRU eviction).
const (
	RecGet OpKind = iota + 1
	RecSet
	RecAdd
	RecReplace
	RecAppend
	RecPrepend
	RecCas
	RecDelete
	RecIncr
	RecDecr
	RecTouch
	RecFlushAll
	RecEvict
	RecExpire
)

func (k OpKind) String() string {
	switch k {
	case RecGet:
		return "get"
	case RecSet:
		return "set"
	case RecAdd:
		return "add"
	case RecReplace:
		return "replace"
	case RecAppend:
		return "append"
	case RecPrepend:
		return "prepend"
	case RecCas:
		return "cas"
	case RecDelete:
		return "delete"
	case RecIncr:
		return "incr"
	case RecDecr:
		return "decr"
	case RecTouch:
		return "touch"
	case RecFlushAll:
		return "flush_all"
	case RecEvict:
		return "evict"
	case RecExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// OpRecord is one totally-ordered engine transition. Fields beyond
// Seq/Kind/Key/Now are populated per kind; byte slices are copies, safe
// to retain.
type OpRecord struct {
	Seq  uint64
	Kind OpKind
	Key  string
	Now  simnet.Time

	// Store-class ops (set/add/replace/cas/append/prepend).
	Value    []byte      // resulting value (stores), returned value (get hit)
	Arg      []byte      // the appended/prepended bytes (concat ops)
	OldValue []byte      // pre-op value (concat ops); evicted value (evict)
	Flags    uint32      // item flags (stores, get hit)
	Exptime  int64       // raw protocol exptime (fresh stores, touch)
	ExpireAt simnet.Time // resulting absolute expiry
	SetAt    simnet.Time // resulting item setAt
	Res      StoreResult

	CasReq uint64 // cas: the id the caller presented
	NewCAS uint64 // id assigned by this op (0: none assigned)
	OldCAS uint64 // get hit / delete hit / evict / expire / concat old item

	Delta  uint64 // incr/decr
	NewNum uint64 // incr/decr result

	Hit bool // get/delete/touch/incr/decr: key was live
	Bad bool // incr/decr: stored value non-numeric
	OOM bool // incr/decr: grown value could not be allocated

	Horizon simnet.Time // flush_all: items with setAt < Horizon are dead
}

// recorder pairs the callback with the global record sequence.
type recorder struct {
	fn  func(*OpRecord)
	seq uint64
}

func (rc *recorder) emit(r *OpRecord) {
	rc.seq++
	r.Seq = rc.seq
	rc.fn(r)
}

// SetRecorder arms (or, with nil, disarms) operation recording. fn is
// called synchronously inside the op, under the store's owner — it
// must be fast and must not call back into the Store. Each *OpRecord is
// freshly allocated and safe to retain.
func (s *Store) SetRecorder(fn func(*OpRecord)) {
	if fn == nil {
		s.rec = nil
		return
	}
	s.rec = &recorder{fn: fn}
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// recordGet emits a get record; it is nil on a miss.
func (s *Store) recordGet(key []byte, it *item, now simnet.Time) {
	rc := s.rec
	if rc == nil {
		return
	}
	r := &OpRecord{Kind: RecGet, Key: string(key), Now: now}
	if it != nil {
		r.Hit = true
		r.Value = cloneBytes(it.value())
		r.Flags = it.flags
		r.OldCAS = it.casID
		r.ExpireAt = it.expireAt
		r.SetAt = it.setAt
	}
	rc.emit(r)
}

// recordStore emits a store-class record; it is nil when the op stored
// nothing (conditional failure, OOM, too large).
func (s *Store) recordStore(kind OpKind, key, value []byte, flags uint32, exptime int64, casReq uint64, it *item, res StoreResult, now simnet.Time) {
	rc := s.rec
	if rc == nil {
		return
	}
	r := &OpRecord{
		Kind: kind, Key: string(key), Now: now, Res: res,
		Flags: flags, Exptime: exptime, CasReq: casReq,
		Value: cloneBytes(value),
	}
	if it != nil {
		r.Flags = it.flags
		r.NewCAS = it.casID
		r.ExpireAt = it.expireAt
		r.SetAt = it.setAt
	}
	rc.emit(r)
}
