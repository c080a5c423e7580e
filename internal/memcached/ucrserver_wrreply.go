package memcached

import "repro/internal/ucr"

// Server state of the write-based reply path: the slot table a client
// registered with its AMArm exchange, against which AMGetW/AMMGetW slot
// indexes resolve to write windows. The write rung itself lives in the
// reply ladder (replyBand/sendValue in ucrserver.go); RC FIFO guarantees
// the written data lands before the notify AM that follows it on the
// same QP is delivered.

// wrWin resolves a request's slot (index plus one; zero = none) against
// the arena the endpoint registered with its AMArm. No slot, an unarmed
// connection or an out-of-range index yields a zero-length window, which
// the ladder's write rung rejects — the reply then takes the copy rungs.
func (w *worker) wrWin(ep *ucr.Endpoint, slot int32) ucr.WindowDesc {
	tab, ok := w.wrTabs[ep]
	if slot == 0 || !ok || uint32(slot) > tab.Slots {
		return ucr.WindowDesc{}
	}
	return ucr.WindowDesc{
		Addr: tab.Addr + uint64(slot-1)*uint64(tab.SlotLen),
		RKey: tab.RKey,
		Len:  int(tab.SlotLen),
	}
}

// writeReplyWin resolves which window a write reply targets. The
// mut_wrreply_stale mutation answers the CURRENT request into the
// PREVIOUS request's window on the same endpoint — the stale-slot bug
// class the per-request window advertisement exists to prevent.
func (w *worker) writeReplyWin(ep *ucr.Endpoint, cur ucr.WindowDesc) ucr.WindowDesc {
	if !mutWrReplyStale {
		return cur
	}
	if w.staleWins == nil {
		w.staleWins = make(map[*ucr.Endpoint]ucr.WindowDesc)
	}
	prev, ok := w.staleWins[ep]
	w.staleWins[ep] = cur
	if !ok {
		return cur
	}
	return prev
}

// UCRWriteReplies totals the write-based replies posted across the
// workers' progress contexts — the vacuity guard for the write-reply
// datapath.
func (s *Server) UCRWriteReplies() uint64 { return s.sumContexts((*ucr.Context).WriteReplies) }
