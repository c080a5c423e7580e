package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// Client half of the write-based reply path: the transport registers
// one window arena carved into fixed-size reply slots and teaches the
// server its geometry once (the AMArm capability exchange, see
// UCRTransport.Arm); a GET/MGET that secures a slot (readOp) then
// advertises just its 2-byte index with the request (amGetW/amMGetW),
// keeping the armed request header within a couple of bytes of the
// plain one. The server answers a crossover-sized hit by gather-writing
// [reply header ‖ value] into the slot and completing the future with a
// payload-free notify AM; anything else comes back as an ordinary
// AMGetReply/AMMGetReply on the same tag, which the existing handlers
// consume — the slot simply goes unused.
//
// Slot recycling leans on RC FIFO ordering: all writes into this
// transport's slots ride its one QP, so a late write from a timed-out
// attempt is ordered BEFORE any later request's write to the same slot
// and can never clobber fresher data; its notify lands on a retired tag
// and is suppressed. finishOp therefore always releases the slot.

// wrSlots and wrSlotLen size the arena: 64 slots of 64 KB + header — a
// full 32-deep pipeline window in flight plus one deferred landing per
// window entry (a pipelined GET's slot stays busy from the request
// until its copy-out materializes, one wait later — see wrMaterialize).
const (
	wrSlots   = 64
	wrSlotLen = 64<<10 + memcached.GetWSlotHdrLen
)

// wrState is the transport's write-reply arena; the zero value is an
// unarmed one, whose free list never yields a slot.
type wrState struct {
	win  *ucr.Window
	free []int32
}

// arm adopts win, registered and accepted by the server, as the arena.
func (w *wrState) arm(win *ucr.Window) {
	w.win = win
	w.free = make([]int32, 0, wrSlots)
	for i := int32(wrSlots - 1); i >= 0; i-- {
		w.free = append(w.free, i)
	}
}

// wrAcquire pops a free reply slot; ok=false (unarmed, window deeper
// than the arena, or slots leaked to a failed endpoint) leaves the
// request on the plain AMs.
func (t *UCRTransport) wrAcquire() (int32, bool) {
	k := len(t.wr.free)
	if k == 0 {
		return 0, false
	}
	i := t.wr.free[k-1]
	t.wr.free = t.wr.free[:k-1]
	return i, true
}

func (t *UCRTransport) wrRelease(i int32) { t.wr.free = append(t.wr.free, i) }

func (t *UCRTransport) wrSlotBytes(i int32) []byte {
	off := int(i) * wrSlotLen
	return t.wr.win.Bytes()[off : off+wrSlotLen]
}

// wrMaterialize completes a deferred write-reply landing: the notify
// completion only records where in the slot the value bytes sit
// (wrPend) and the copy-out — the one client-side copy the write path
// pays, under the op's landing discipline, charged like the one-sided
// path's validated copy — happens when the consumer reads the result:
// immediately for the blocking paths, but just before the next blocking
// CQ wait for pipelined ones. A pipelined client therefore issues its
// next request first and copies while the server turns the following
// reply around; whenever that reply is still in flight the forward-only
// clock sync to its arrival swallows the copy entirely (double-buffering
// the landing against the wire). A no-op unless a notify recorded a
// pending slot landing.
func (t *UCRTransport) wrMaterialize(op *amOp) {
	if !op.wrPend {
		return
	}
	op.wrPend = false
	src := t.wrSlotBytes(op.wrSlot - 1)[op.wrOff : op.wrOff+op.wrLen]
	op.clk.Advance(simnet.BytesDuration(op.wrLen, t.rt.Config().PackBytesPerSec))
	t.land(op, op.wrLen)
	copy(op.data, src)
}

// onGetWNotify completes a GET whose value the server wrote into the
// op's slot, behind the reply header.
func (t *UCRTransport) onGetWNotify(op *amOp, hdr, _ []byte) {
	n, err := memcached.DecodeGetWNotify(hdr)
	if err != nil {
		return
	}
	op.get = memcached.GetReply{Status: n.Status, Flags: n.Flags, CAS: n.CAS}
	if n.Status != memcached.AMOK || op.wrSlot == 0 {
		return
	}
	if memcached.GetWSlotHdrLen+int(n.ValueLen) > wrSlotLen {
		// A healthy server never writes past the window it was handed;
		// refuse to read out of the arena's lane.
		op.get.Status = memcached.AMError
		return
	}
	op.wrPend, op.wrOff, op.wrLen, op.path = true, memcached.GetWSlotHdrLen, int(n.ValueLen), PathWrite
}

// onMGetWNotify completes an MGET written into the op's slot: the mget
// reply header occupies slot[:HdrLen], the value block follows. An
// unusable notify settles as an empty reply.
func (t *UCRTransport) onMGetWNotify(op *amOp, hdr, _ []byte) {
	n, err := memcached.DecodeMGetWNotify(hdr)
	hl, dl := int(n.HdrLen), int(n.DataLen)
	if err != nil || op.wrSlot == 0 || n.Status != memcached.AMOK || hl+dl > wrSlotLen {
		return
	}
	if op.mget, err = memcached.DecodeMGetReply(t.wrSlotBytes(op.wrSlot - 1)[:hl]); err == nil {
		op.wrPend, op.wrOff, op.wrLen, op.path = true, hl, dl, PathWrite
	}
}
