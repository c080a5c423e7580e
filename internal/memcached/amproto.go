package memcached

import (
	"encoding/binary"
	"errors"

	"repro/internal/ucr"
)

// Active-message ids for the UCR frontend (paper §V). AM 1 carries the
// client's request (its header names the client counter C to target with
// the reply); AM 2 is the server's answer, targeting C.
const (
	AMSet      uint8 = 0x10
	AMGet      uint8 = 0x11
	AMDelete   uint8 = 0x12
	AMIncr     uint8 = 0x13
	AMDecr     uint8 = 0x14
	AMSetReply uint8 = 0x20
	AMGetReply uint8 = 0x21
	AMNumReply uint8 = 0x22 // incr/decr reply carrying the new value
	// AMDeleteReply is wire-identical to AMSetReply (a StatusReply) but
	// carries its own id so per-op trace/metrics counters can tell a
	// delete answer from a store answer.
	AMDeleteReply uint8 = 0x24
)

// AM reply status codes.
const (
	AMOK       uint8 = 0
	AMMiss     uint8 = 1
	AMError    uint8 = 2
	AMBadValue uint8 = 3
	// AMTooBig answers a GET that arrived on an unreliable (UD) endpoint
	// whose value does not fit one datagram: the reply carries the status
	// only and the client re-issues the request over its RC endpoint.
	// Never sent on reliable endpoints (those use eager or rendezvous).
	AMTooBig uint8 = 4
)

// ErrShortAMHeader reports a malformed active-message header.
var ErrShortAMHeader = errors.New("memcached: short active-message header")

// SetReq is the AM 1 header for a Set; the item value travels as the
// AM data (pulled by the server with RDMA Read when large).
type SetReq struct {
	ReplyCtr ucr.CounterID
	Flags    uint32
	Exptime  int64
	Key      string
}

// AppendSetReq packs the header onto dst (callers bring a pooled
// buffer): replyCtr(8) flags(4) exptime(8) klen(2) key.
func AppendSetReq(dst []byte, r SetReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReplyCtr))
	dst = le.AppendUint32(dst, r.Flags)
	dst = le.AppendUint64(dst, uint64(r.Exptime))
	dst = le.AppendUint16(dst, uint16(len(r.Key)))
	return append(dst, r.Key...)
}

// SetReqView is a Set header decoded in place: Key aliases the wire
// buffer and is valid only until the receive buffer is recycled.
type SetReqView struct {
	ReplyCtr ucr.CounterID
	Flags    uint32
	Exptime  int64
	Key      []byte
}

// DecodeSetReqView unpacks the header without copying the key.
func DecodeSetReqView(b []byte) (SetReqView, error) {
	if len(b) < 22 {
		return SetReqView{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(b[20:]))
	if len(b) < 22+kl {
		return SetReqView{}, ErrShortAMHeader
	}
	return SetReqView{
		ReplyCtr: ucr.CounterID(le.Uint64(b)),
		Flags:    le.Uint32(b[8:]),
		Exptime:  int64(le.Uint64(b[12:])),
		Key:      b[22 : 22+kl],
	}, nil
}

// KeyReq is the AM 1 header for Get and Delete.
type KeyReq struct {
	ReplyCtr ucr.CounterID
	Key      string
}

// AppendKeyReq packs the header onto dst.
func AppendKeyReq(dst []byte, r KeyReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReplyCtr))
	dst = le.AppendUint16(dst, uint16(len(r.Key)))
	return append(dst, r.Key...)
}

// KeyReqView is a Get/Delete header decoded in place: Key aliases the
// wire buffer.
type KeyReqView struct {
	ReplyCtr ucr.CounterID
	Key      []byte
}

// DecodeKeyReqView unpacks the header without copying the key.
func DecodeKeyReqView(b []byte) (KeyReqView, error) {
	if len(b) < 10 {
		return KeyReqView{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(b[8:]))
	if len(b) < 10+kl {
		return KeyReqView{}, ErrShortAMHeader
	}
	return KeyReqView{
		ReplyCtr: ucr.CounterID(le.Uint64(b)),
		Key:      b[10 : 10+kl],
	}, nil
}

// NumReq is the AM 1 header for Incr/Decr.
type NumReq struct {
	ReplyCtr ucr.CounterID
	Delta    uint64
	Key      string
}

// AppendNumReq packs the header onto dst.
func AppendNumReq(dst []byte, r NumReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReplyCtr))
	dst = le.AppendUint64(dst, r.Delta)
	dst = le.AppendUint16(dst, uint16(len(r.Key)))
	return append(dst, r.Key...)
}

// DecodeNumReqView unpacks an Incr/Decr header in place: key aliases
// the wire buffer and is valid only until the receive buffer is
// recycled.
func DecodeNumReqView(b []byte) (replyCtr ucr.CounterID, delta uint64, key []byte, err error) {
	if len(b) < 18 {
		return 0, 0, nil, ErrShortAMHeader
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(b[16:]))
	if len(b) < 18+kl {
		return 0, 0, nil, ErrShortAMHeader
	}
	return ucr.CounterID(le.Uint64(b)), le.Uint64(b[8:]), b[18 : 18+kl], nil
}

// StatusReply is the AM 2 header for Set/Delete replies.
type StatusReply struct {
	Status uint8
	Result StoreResult // meaningful for Set
}

// AppendStatusReply packs the header onto dst.
func AppendStatusReply(dst []byte, r StatusReply) []byte {
	return append(dst, r.Status, byte(r.Result))
}

// DecodeStatusReply unpacks the header.
func DecodeStatusReply(b []byte) (StatusReply, error) {
	if len(b) < 2 {
		return StatusReply{}, ErrShortAMHeader
	}
	return StatusReply{Status: b[0], Result: StoreResult(b[1])}, nil
}

// GetReply is the AM 2 header for a Get; the value travels as AM data
// (eagerly ≤ the threshold, else the client RDMA-reads it from the
// server's slab memory). In the standard Memcached API the client does
// not know the item length beforehand — it learns it from this AM and
// allocates the destination buffer in its header handler (§V-C).
type GetReply struct {
	Status uint8
	Flags  uint32
	CAS    uint64
}

// AppendGetReply packs the header onto dst.
func AppendGetReply(dst []byte, r GetReply) []byte {
	le := binary.LittleEndian
	dst = append(dst, r.Status)
	dst = le.AppendUint32(dst, r.Flags)
	return le.AppendUint64(dst, r.CAS)
}

// DecodeGetReply unpacks the header.
func DecodeGetReply(b []byte) (GetReply, error) {
	if len(b) < 13 {
		return GetReply{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	return GetReply{Status: b[0], Flags: le.Uint32(b[1:]), CAS: le.Uint64(b[5:])}, nil
}

// NumReply is the AM 2 header for Incr/Decr.
type NumReply struct {
	Status uint8
	Value  uint64
}

// AppendNumReply packs the header onto dst.
func AppendNumReply(dst []byte, r NumReply) []byte {
	dst = append(dst, r.Status)
	return binary.LittleEndian.AppendUint64(dst, r.Value)
}

// DecodeNumReply unpacks the header.
func DecodeNumReply(b []byte) (NumReply, error) {
	if len(b) < 9 {
		return NumReply{}, ErrShortAMHeader
	}
	return NumReply{Status: b[0], Value: binary.LittleEndian.Uint64(b[1:])}, nil
}
