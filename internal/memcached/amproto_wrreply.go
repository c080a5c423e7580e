package memcached

import (
	"encoding/binary"

	"repro/internal/ucr"
)

// Fast-path arming and write-based replies. A client that armed any
// opt-in read path runs ONE capability exchange per connection (AMArm):
// it registers its slot-carved reply arena, if it has one, and learns
// the server's one-sided directory, if the server publishes one. A
// client with nothing armed never sends it, so default traffic is
// untouched. Each GET/MGET that secured an arena slot then advertises
// just the 2-byte slot index (AMGetW/AMMGetW); the server answers a
// validated hit by gather-writing [reply header ‖ value(s)] straight
// from the pinned slab chunk into that slot, completing the client's
// future with a small payload-free notify AM. A slot-carrying request
// whose connection never armed (the exchange was lost, or a foreign
// endpoint replays one) resolves to an empty window and takes the copy
// rungs of the reply ladder.
const (
	// AMGetW is AMGet plus a reply-slot index.
	AMGetW uint8 = 0x18
	// AMMGetW is AMMGet plus a reply-slot index.
	AMMGetW uint8 = 0x19
	// AMArm is the capability exchange: the client's reply arena (base
	// address, rkey, slot length, slot count; zero slots = none).
	// Answered by AMArmReply, so arming rides the ordinary request/retry
	// machinery.
	AMArm uint8 = 0x1a
	// AMArmReply acknowledges AMArm and carries the one-sided directory
	// descriptor.
	AMArmReply uint8 = 0x29
	// AMGetWNotify answers an AMGetW whose value was RDMA-written into
	// the advertised window: the metadata the client needs (status,
	// flags, CAS, value length), no payload. Ordinary AMGetReply answers
	// an AMGetW whenever the server fell back to the copy path.
	AMGetWNotify uint8 = 0x27
	// AMMGetWNotify answers an AMMGetW served through the window: the
	// written [mget header ‖ value block] extents.
	AMMGetWNotify uint8 = 0x28
)

// GetWSlotHdrLen is the encoded GetReply length the server writes at
// offset 0 of the client's reply slot, ahead of the value bytes.
const GetWSlotHdrLen = 13

// ArmReq is the AM 1 header for the capability exchange: the reply
// arena's registered base descriptor plus its slot geometry (Slots == 0
// registers nothing). Wire layout: replyCtr(8) addr(8) rkey(4)
// slotLen(4) slots(4).
type ArmReq struct {
	ReplyCtr ucr.CounterID
	Addr     uint64
	RKey     uint32
	SlotLen  uint32
	Slots    uint32
}

const armFixed = 8 + 8 + 4 + 4 + 4

// AppendArmReq packs the header onto dst.
func AppendArmReq(dst []byte, r ArmReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReplyCtr))
	dst = le.AppendUint64(dst, r.Addr)
	dst = le.AppendUint32(dst, r.RKey)
	dst = le.AppendUint32(dst, r.SlotLen)
	return le.AppendUint32(dst, r.Slots)
}

// decodeArmReq unpacks the header. A geometry whose slots would exceed
// the one-sided window bound is rejected rather than truncated.
func decodeArmReq(b []byte) (ArmReq, error) {
	if len(b) < armFixed {
		return ArmReq{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	r := ArmReq{
		ReplyCtr: ucr.CounterID(le.Uint64(b)),
		Addr:     le.Uint64(b[8:]),
		RKey:     le.Uint32(b[16:]),
		SlotLen:  le.Uint32(b[20:]),
		Slots:    le.Uint32(b[24:]),
	}
	if uint64(r.SlotLen) > ucr.MaxWindowLen {
		return ArmReq{}, ErrShortAMHeader
	}
	return r, nil
}

// ArmReply answers AMArm: whether the reply arena was accepted (AMOK
// also when none was offered), and the one-sided directory — Enabled
// false unless the server publishes one. Wire layout: status(1) then
// the OSDesc encoding.
type ArmReply struct {
	Status uint8
	OS     OSDesc
}

// encodeArmReply packs the reply header.
func encodeArmReply(r ArmReply) []byte {
	return append([]byte{r.Status}, encodeOSDesc(r.OS)...)
}

// DecodeArmReply unpacks the reply header.
func DecodeArmReply(b []byte) (ArmReply, error) {
	if len(b) < 1 {
		return ArmReply{}, ErrShortAMHeader
	}
	os, err := decodeOSDesc(b[1:])
	return ArmReply{Status: b[0], OS: os}, err
}

// AppendGetReq packs a Get header onto dst and reports the AM id that
// carries it: AMGet is the KeyReq layout, replyCtr(8) klen(2) key, and
// AMGetW inserts the arena slot the reply may be written into,
// replyCtr(8) slot(2) klen(2) key. slot is index plus one, zero for none.
func AppendGetReq(dst []byte, ctr ucr.CounterID, slot int32, key string) ([]byte, uint8) {
	if slot == 0 {
		return AppendKeyReq(dst, KeyReq{ReplyCtr: ctr, Key: key}), AMGet
	}
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(ctr))
	dst = le.AppendUint16(dst, uint16(slot-1))
	dst = le.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...), AMGetW
}

// GetReqView is a Get header decoded in place: Key aliases the wire
// buffer. Slot is index plus one, zero for a plain AMGet.
type GetReqView struct {
	ReplyCtr ucr.CounterID
	Slot     int32
	Key      []byte
}

// decodeGetReqView unpacks a Get header without copying the key;
// slotted says which layout the AM id implies.
func decodeGetReqView(b []byte, slotted bool) (GetReqView, error) {
	if !slotted {
		k, err := DecodeKeyReqView(b)
		return GetReqView{ReplyCtr: k.ReplyCtr, Key: k.Key}, err
	}
	const fixed = 8 + 2 + 2
	if len(b) < fixed {
		return GetReqView{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	kl := int(le.Uint16(b[10:]))
	if len(b) < fixed+kl {
		return GetReqView{}, ErrShortAMHeader
	}
	return GetReqView{
		ReplyCtr: ucr.CounterID(le.Uint64(b)),
		Slot:     int32(le.Uint16(b[8:])) + 1,
		Key:      b[fixed : fixed+kl],
	}, nil
}

// GetWNotify is the AM 2 header completing a write-served Get: the
// GetReply metadata plus the value length written into the slot (the
// value itself is already sitting at slot[GetWSlotHdrLen:]).
type GetWNotify struct {
	Status   uint8
	Flags    uint32
	CAS      uint64
	ValueLen uint32
}

// appendGetWNotify packs the header onto dst.
func appendGetWNotify(dst []byte, r GetWNotify) []byte {
	le := binary.LittleEndian
	dst = append(dst, r.Status)
	dst = le.AppendUint32(dst, r.Flags)
	dst = le.AppendUint64(dst, r.CAS)
	return le.AppendUint32(dst, r.ValueLen)
}

// DecodeGetWNotify unpacks the header.
func DecodeGetWNotify(b []byte) (GetWNotify, error) {
	if len(b) < 17 {
		return GetWNotify{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	return GetWNotify{
		Status:   b[0],
		Flags:    le.Uint32(b[1:]),
		CAS:      le.Uint64(b[5:]),
		ValueLen: le.Uint32(b[13:]),
	}, nil
}

// MGetWNotify is the AM 2 header completing a write-served multi-get:
// the extents of what the server wrote into the slot — the mget reply
// header occupies slot[:HdrLen] and the concatenated value block
// slot[HdrLen : HdrLen+DataLen].
type MGetWNotify struct {
	Status  uint8
	HdrLen  uint32
	DataLen uint32
}

// appendMGetWNotify packs the header onto dst.
func appendMGetWNotify(dst []byte, r MGetWNotify) []byte {
	le := binary.LittleEndian
	dst = append(dst, r.Status)
	dst = le.AppendUint32(dst, r.HdrLen)
	return le.AppendUint32(dst, r.DataLen)
}

// DecodeMGetWNotify unpacks the header.
func DecodeMGetWNotify(b []byte) (MGetWNotify, error) {
	if len(b) < 9 {
		return MGetWNotify{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	return MGetWNotify{Status: b[0], HdrLen: le.Uint32(b[1:]), DataLen: le.Uint32(b[5:])}, nil
}
