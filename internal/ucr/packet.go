package ucr

import (
	"encoding/binary"
	"fmt"
)

// Packet types on the wire.
const (
	ptEager   = 1 // header + data packed in one transaction (Fig 2b)
	ptRndzHdr = 2 // header + (addr, rkey) of origin data to RDMA-read (Fig 2a)
	ptAck     = 3 // internal counter/credit message
)

// packetHdrSize is the fixed wire header:
//
//	type(1) msgID(1) credits(2) hdrLen(4) dataLen(4)
//	originCtr(8) targetCtr(8) complCtr(8) rndzAddr(8) rkey(4) seq(8)
const packetHdrSize = 1 + 1 + 2 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8

// packet is the decoded form.
type packet struct {
	typ       uint8
	msgID     uint8
	credits   uint16
	hdr       []byte
	dataLen   int
	originCtr CounterID
	targetCtr CounterID
	complCtr  CounterID
	rndzAddr  uint64
	rkey      uint32
	seq       uint64
	data      []byte // eager only
}

// encode packs the wire header and hdr into dst, which must hold
// packetHdrSize+len(p.hdr) bytes. An eager packet's data is not copied:
// it travels as the send's second gather segment and lands right
// behind them.
func (p *packet) encode(dst []byte) {
	le := binary.LittleEndian
	dst[0] = p.typ
	dst[1] = p.msgID
	le.PutUint16(dst[2:], p.credits)
	le.PutUint32(dst[4:], uint32(len(p.hdr)))
	le.PutUint32(dst[8:], uint32(p.dataLen))
	le.PutUint64(dst[12:], uint64(p.originCtr))
	le.PutUint64(dst[20:], uint64(p.targetCtr))
	le.PutUint64(dst[28:], uint64(p.complCtr))
	le.PutUint64(dst[36:], p.rndzAddr)
	le.PutUint32(dst[44:], p.rkey)
	le.PutUint64(dst[48:], p.seq)
	copy(dst[packetHdrSize:], p.hdr)
}

// decodePacket parses a wire buffer of n valid bytes into p, whose hdr
// and data then alias buf.
func decodePacket(p *packet, buf []byte, n int) error {
	if n < packetHdrSize || n > len(buf) {
		return fmt.Errorf("ucr: short packet (%d bytes)", n)
	}
	le := binary.LittleEndian
	p.typ = buf[0]
	p.msgID = buf[1]
	p.credits = le.Uint16(buf[2:])
	p.dataLen = int(le.Uint32(buf[8:]))
	p.originCtr = CounterID(le.Uint64(buf[12:]))
	p.targetCtr = CounterID(le.Uint64(buf[20:]))
	p.complCtr = CounterID(le.Uint64(buf[28:]))
	p.rndzAddr = le.Uint64(buf[36:])
	p.rkey = le.Uint32(buf[44:])
	p.seq = le.Uint64(buf[48:])
	hdrLen := int(le.Uint32(buf[4:]))
	off := packetHdrSize
	if off+hdrLen > n {
		return fmt.Errorf("ucr: header overruns packet (%d+%d > %d)", off, hdrLen, n)
	}
	p.hdr = buf[off : off+hdrLen]
	off += hdrLen
	p.data = nil
	if p.typ == ptEager {
		if off+p.dataLen > n {
			return fmt.Errorf("ucr: data overruns packet (%d+%d > %d)", off, p.dataLen, n)
		}
		p.data = buf[off : off+p.dataLen]
	}
	return nil
}
