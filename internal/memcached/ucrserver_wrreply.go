package memcached

import "repro/internal/ucr"

// Server state of the write-based reply path: the slot table a client
// registered with its AMArm exchange (ucrConn.arena), against which
// amGetW/amMGetW slot indexes resolve to write windows. The write rung
// itself lives in the reply ladder (replyBand/sendValue in
// ucrserver.go); RC FIFO guarantees the written data lands before the
// notify AM that follows it on the same QP is delivered.

// wrWin resolves a request's slot (index plus one; zero = none) against
// the arena the connection registered with its AMArm. No slot, an
// unarmed connection or an out-of-range index yields a zero-length
// window, which the ladder's write rung rejects — the reply then takes
// the copy rungs.
func (c *ucrConn) wrWin(slot int32) ucr.WindowDesc {
	tab := c.arena
	if slot == 0 || uint32(slot) > tab.Slots {
		return ucr.WindowDesc{}
	}
	return ucr.WindowDesc{
		Addr: tab.Addr + uint64(slot-1)*uint64(tab.SlotLen),
		RKey: tab.RKey,
		Len:  int(tab.SlotLen),
	}
}

// UCRWriteReplies totals the write-based replies posted across the
// workers' progress contexts — the vacuity guard for the write-reply
// datapath.
func (s *Server) UCRWriteReplies() uint64 { return s.sumContexts((*ucr.Context).WriteReplies) }
