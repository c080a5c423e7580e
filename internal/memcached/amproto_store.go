package memcached

import (
	"encoding/binary"

	"repro/internal/ucr"
)

// AMStore carries the conditional storage commands (add, replace,
// append, prepend, cas) that the blocking AMSet fast path does not
// cover. One AM id with an op byte instead of five ids: the commands
// share a wire shape (header + value data block + StatusReply answer),
// and unlike AMSet the value cannot land in slab memory up front —
// whether a conditional store allocates at all is only known when the
// store op executes, so there is no per-op header handler to
// specialize.
const AMStore uint8 = 0x16

// Store op codes: the storage verbs, as carried in StoreReq.Op and as
// Store.store dispatches them. StoreOpSet is last so the wire codes
// of the conditional stores stay put; the UCR client sends a plain set
// as AMSet, never as AMStore.
const (
	StoreOpAdd uint8 = iota + 1
	StoreOpReplace
	StoreOpAppend
	StoreOpPrepend
	StoreOpCas
	StoreOpSet
)

// StoreReq is the AM 1 header for a conditional store; the value
// travels as the AM data block.
type StoreReq struct {
	ReplyCtr ucr.CounterID
	Op       uint8
	Flags    uint32
	Exptime  int64
	CAS      uint64 // StoreOpCas only
	Key      string
}

// AppendStoreReq packs the header onto dst.
func AppendStoreReq(dst []byte, r StoreReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReplyCtr))
	dst = append(dst, r.Op)
	dst = le.AppendUint32(dst, r.Flags)
	dst = le.AppendUint64(dst, uint64(r.Exptime))
	dst = le.AppendUint64(dst, r.CAS)
	dst = le.AppendUint16(dst, uint16(len(r.Key)))
	return append(dst, r.Key...)
}

// storeReqView is a conditional-store header decoded in place: key
// aliases the wire buffer.
type storeReqView struct {
	replyCtr ucr.CounterID
	op       uint8
	flags    uint32
	exptime  int64
	cas      uint64
	key      []byte
}

// decodeStoreReqView unpacks the header without copying the key.
func decodeStoreReqView(b []byte) (storeReqView, error) {
	if len(b) < 31 {
		return storeReqView{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(b[29:]))
	if len(b) < 31+kl {
		return storeReqView{}, ErrShortAMHeader
	}
	return storeReqView{
		replyCtr: ucr.CounterID(le.Uint64(b)),
		op:       b[8],
		flags:    le.Uint32(b[9:]),
		exptime:  int64(le.Uint64(b[13:])),
		cas:      le.Uint64(b[21:]),
		key:      b[31 : 31+kl],
	}, nil
}
