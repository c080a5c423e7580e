package memcached

import (
	"encoding/binary"

	"repro/internal/ucr"
)

// Multi-get over UCR: one AM 1 carries the whole key batch, one AM 2
// returns every found item with the values concatenated as the AM data.
// The paper's §V notes mget follows from the same set/get principles —
// and it does: a small batch rides the eager path in one transaction,
// while a batch with large aggregate value size is pulled by the client
// with a single RDMA read.
const (
	amMGet      uint8 = 0x15
	AMMGetReply uint8 = 0x23
	// AMMGetRetry answers a multi-get that arrived on an unreliable (UD)
	// endpoint whose aggregate reply does not fit one datagram. The reply
	// carries no payload (MGetReply has no status field and its wire
	// format is frozen); the client re-issues the batch over RC.
	AMMGetRetry uint8 = 0x26
)

// AppendMGetReq packs a multi-get onto dst and reports the AM id that
// carries it: amMGet is replyCtr(8) nkeys(2) {klen(2) key}*, and amMGetW
// inserts slot(2) after the counter. slot is index plus one, zero for
// none.
func AppendMGetReq(dst []byte, ctr ucr.CounterID, slot int32, keys []string) ([]byte, uint8) {
	le := binary.LittleEndian
	msg := amMGet
	dst = le.AppendUint64(dst, uint64(ctr))
	if slot != 0 {
		msg = amMGetW
		dst = le.AppendUint16(dst, uint16(slot-1))
	}
	dst = le.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		dst = le.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return dst, msg
}

// mgetKeyCursor walks an encoded multi-get batch in place: each key it
// yields aliases the wire buffer, so the server can look keys up
// straight out of the receive buffer.
type mgetKeyCursor struct {
	b    []byte
	off  int
	n, i int
}

// newMGetKeyCursor opens an in-place key cursor over an encoded
// multi-get request, returning the reply counter and the advertised
// slot (index plus one; zero for a plain amMGet).
func newMGetKeyCursor(b []byte, slotted bool) (ucr.CounterID, int32, mgetKeyCursor, error) {
	off, slot := 8, int32(0)
	if slotted {
		off = 10
	}
	if len(b) < off+2 {
		return 0, 0, mgetKeyCursor{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	if slotted {
		slot = int32(le.Uint16(b[8:])) + 1
	}
	cur := mgetKeyCursor{b: b, off: off + 2, n: int(le.Uint16(b[off:]))}
	return ucr.CounterID(le.Uint64(b)), slot, cur, nil
}

// next yields the next key, or ok=false at the end (or on truncation).
func (c *mgetKeyCursor) next() (key []byte, ok bool) {
	if c.i >= c.n || c.off+2 > len(c.b) {
		return nil, false
	}
	kl := int(binary.LittleEndian.Uint16(c.b[c.off:]))
	c.off += 2
	if c.off+kl > len(c.b) {
		return nil, false
	}
	key = c.b[c.off : c.off+kl]
	c.off += kl
	c.i++
	return key, true
}

// MGetItem describes one found item in a multi-get reply; its value is
// a slice of the reply's concatenated data block.
type MGetItem struct {
	Key      string
	flags    uint32
	cas      uint64
	ValueLen int
}

// MGetReply is the AM 2 header: the per-item metadata; the values are
// the AM data, concatenated in item order. Wire layout: nitems(2)
// {klen(2) flags(4) cas(8) vlen(4) key}*.
type MGetReply struct {
	Items []MGetItem
}

// beginMGetReply starts an append-encoded reply header in dst with a
// zero item count; appendMGetReplyItem adds items and finishMGetReply
// patches the count, so a server can build the header in one pass
// without knowing how many keys will hit.
func beginMGetReply(dst []byte) []byte {
	return append(dst, 0, 0)
}

// appendMGetReplyItem packs one found item onto an open reply header.
// key aliases wire or slab memory; it is copied into dst here.
func appendMGetReplyItem(dst []byte, key []byte, flags uint32, cas uint64, valueLen int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint16(dst, uint16(len(key)))
	dst = le.AppendUint32(dst, flags)
	dst = le.AppendUint64(dst, cas)
	dst = le.AppendUint32(dst, uint32(valueLen))
	return append(dst, key...)
}

// finishMGetReply patches the item count into a header started at
// start (the offset beginMGetReply was called at).
func finishMGetReply(b []byte, start, nitems int) {
	binary.LittleEndian.PutUint16(b[start:], uint16(nitems))
}

// DecodeMGetReply unpacks the header.
func DecodeMGetReply(b []byte) (MGetReply, error) {
	if len(b) < 2 {
		return MGetReply{}, ErrShortAMHeader
	}
	le := binary.LittleEndian
	nitems := int(le.Uint16(b))
	off := 2
	r := MGetReply{Items: make([]MGetItem, 0, nitems)}
	for i := 0; i < nitems; i++ {
		if off+18 > len(b) {
			return MGetReply{}, ErrShortAMHeader
		}
		it := MGetItem{
			flags:    le.Uint32(b[off+2:]),
			cas:      le.Uint64(b[off+6:]),
			ValueLen: int(le.Uint32(b[off+14:])),
		}
		kl := int(le.Uint16(b[off:]))
		off += 18
		if off+kl > len(b) {
			return MGetReply{}, ErrShortAMHeader
		}
		it.Key = string(b[off : off+kl])
		off += kl
		r.Items = append(r.Items, it)
	}
	return r, nil
}
