package memcached

import (
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// This file is the server half of the paper's §V design: Memcached
// operations carried as UCR active messages.
//
// Set (§V-B): the client's AM 1 carries the set header plus the item
// value. For large items the UCR rendezvous path has the *server* issue
// an RDMA Read — and because the Set header handler allocates the item
// first, the read lands the value directly in slab memory, no staging
// copy. AM 2 returns the status, targeting the client's counter C.
//
// Get (§V-C): AM 1 carries the key and counter C. The item length is
// unknown to the client beforehand; the server's AM 2 reply announces it,
// the client's header handler allocates (from its buffer pool), and the
// value travels eagerly (≤ 8 KB) or is RDMA-read by the client directly
// from the pinned item's slab memory.
//
// The steady-state GET/SET/MGET paths allocate nothing: request headers
// are decoded in place (the *View decoders), keys are hashed and
// compared as []byte straight out of the receive buffer, items come
// from the store's free list, and replies are built in per-worker arenas
// whose reuse rules are documented on the worker struct.

// ucrConn is one UCR connection's server state, carried on its
// endpoint (ucr.Endpoint.UserData) from accept to close.
type ucrConn struct {
	w    *worker       // the worker that accepted it
	ep   *ucr.Endpoint // the endpoint carrying it
	sets []setPending  // in-flight Sets, header handler to completion
	// listed marks the connection on its worker's setConns list: it
	// has filed a Set since the worker's last sweep.
	listed bool
	// arena is the reply-arena geometry of the connection's one-time
	// AMArm exchange (Slots == 0: unarmed); slot-advertising requests
	// resolve their write window against it.
	arena ArmReq
}

// connOf resolves the connection state an endpoint carries.
func connOf(ep *ucr.Endpoint) *ucrConn { return ep.UserData.(*ucrConn) }

// setPending carries one Set from its header handler to its completion,
// named by the landing the header handler returned. Completions do not
// come in header order: an eager Set completes right after its header, a
// rendezvous one when the server's RDMA read of its value lands, so an
// eager Set can complete while an earlier rendezvous Set is still
// reading.
type setPending struct {
	land     []byte
	item     *item
	res      StoreResult
	replyCtr ucr.CounterID
}

// pendSet files a Set at its header handler and returns its landing,
// listing the connection for the worker's sweep (sweepSets).
func (c *ucrConn) pendSet(p setPending) []byte {
	c.sets = append(c.sets, p)
	if !c.listed {
		c.listed = true
		c.w.setConns = append(c.w.setConns, c)
	}
	return p.land
}

// takeSet removes the in-flight Set whose value landed in data. Landings
// are distinct while in flight; an empty one (a zero-length value, always
// eager) belongs to the Set whose header just ran, the only such Set
// pending.
func (c *ucrConn) takeSet(data []byte) (setPending, bool) {
	for i, p := range c.sets {
		if len(p.land) == len(data) && (len(data) == 0 || &p.land[0] == &data[0]) {
			last := len(c.sets) - 1
			c.sets[i] = c.sets[last]
			c.sets[last] = setPending{} // drop the item reference
			c.sets = c.sets[:last]
			return p, true
		}
	}
	return setPending{}, false
}

// opCharge charges the per-op command-processing cost. The 2nd..Nth
// completions harvested by one batched CQ drain pay the coalesced cost:
// their fixed per-op overheads (dispatch branch, cache warmup) amortize
// across the sweep. A lone completion always pays full OpCost.
func (s *Server) opCharge(clk *simnet.VClock, ep *ucr.Endpoint) {
	if ep.Context().InCoalescedDrain() {
		clk.Advance(coalescedOpCost(s.cfg.OpCost))
	} else {
		clk.Advance(s.cfg.OpCost)
	}
}

// nilHeader is the header handler for AMs whose data block is empty.
func nilHeader(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil }

// registerAMHandlers installs the §V protocol on the runtime.
func (s *Server) registerAMHandlers(rt *ucr.Runtime) {
	rt.RegisterHandler(AMSet, ucr.Handler{
		Header:     s.amSetHeader,
		Completion: s.amSetComplete,
	})
	// A plain AMGet/amMGet is the slot-advertising form with no slot:
	// one handler serves both ids, told only which header layout to parse.
	for _, slotted := range []bool{false, true} {
		get, mget := AMGet, amMGet
		if slotted {
			get, mget = amGetW, amMGetW
		}
		rt.RegisterHandler(get, ucr.Handler{Header: nilHeader, Completion: s.amGetComplete(slotted)})
		rt.RegisterHandler(mget, ucr.Handler{Header: nilHeader, Completion: s.amMGetComplete(slotted)})
	}
	rt.RegisterHandler(AMArm, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amArmComplete,
	})
	rt.RegisterHandler(AMStore, ucr.Handler{
		Header:     s.amStoreHeader,
		Completion: s.amStoreComplete,
	})
	rt.RegisterHandler(AMDelete, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amDeleteComplete,
	})
	rt.RegisterHandler(AMIncr, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amNumComplete(true),
	})
	rt.RegisterHandler(AMDecr, ucr.Handler{
		Header:     nilHeader,
		Completion: s.amNumComplete(false),
	})
}

// amSetHeader identifies where the item will be stored — the paper's
// "identifies where it wants to store the item. Then, it issues an RDMA
// Read to that destination memory location" (§V-B). A Set that cannot
// allocate still completes its transfer, into a landing from the
// context's pool that amSetComplete hands back.
func (s *Server) amSetHeader(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
	c := connOf(ep)
	req, err := decodeSetReqView(hdr)
	if err != nil {
		return c.pendSet(setPending{land: ep.Context().Buf(dataLen), res: NotStored})
	}
	it, res := s.store.allocateItem(req.key, req.flags, req.exptime, dataLen, clk.Now())
	if res != Stored {
		return c.pendSet(setPending{land: ep.Context().Buf(dataLen), res: res, replyCtr: req.replyCtr})
	}
	return c.pendSet(setPending{land: it.value(), item: it, res: Stored, replyCtr: req.replyCtr})
}

// amSetComplete commits the item and answers with AM 2 (§V-B).
func (s *Server) amSetComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	c := connOf(ep)
	p, ok := c.takeSet(data)
	if !ok {
		return
	}
	s.opCharge(clk, ep)
	status := AMOK
	if p.item != nil {
		// No copy extends the hold: the value already landed in slab
		// memory via RDMA before the commit takes the lock (§V-B).
		s.store.commitItem(p.item, chargeFirst(clk))
	} else {
		ep.Context().Recycle(data)
		status = AMError
	}
	if p.replyCtr == 0 {
		return
	}
	c.w.reply = appendStatusReply(c.w.reply[:0], StatusReply{Status: status, Result: p.res})
	_ = ep.Send(clk, AMSetReply, c.w.reply, nil, nil, p.replyCtr, nil)
}

// amGetComplete looks the item up and answers with AM 2 carrying the
// value (§V-C); how the value travels is the reply ladder's decision
// (replyBand). slotted selects the amGetW header layout.
func (s *Server) amGetComplete(slotted bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		c := connOf(ep)
		w := c.w
		req, err := decodeGetReqView(hdr, slotted)
		if err != nil {
			return
		}
		s.opCharge(clk, ep)
		// The reply is served from the pinned item's slab memory, so no
		// copy extends the hold (§V-C).
		it, ok := s.store.getPinned(req.key, chargeFirst(clk))
		if !ok {
			w.reply = AppendGetReply(w.reply[:0], GetReply{Status: amMiss})
			_ = ep.Send(clk, AMGetReply, w.reply, nil, nil, req.replyCtr, nil)
			return
		}
		w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMOK, Flags: it.flags, CAS: it.casID})
		win := c.wrWin(req.slot)
		band := s.replyBand(ep, win, len(w.reply)+int(it.nbytes))
		s.sendValue(clk, c, ep, band, valueReply{ctr: req.replyCtr, win: win, value: it.value(), item: it})
	}
}

// amMGetComplete serves a whole key batch with one reply AM: per-item
// metadata in the header, the values concatenated as the data block.
// Keys are walked straight out of the receive buffer and the reply
// header is built in the worker's arena in the same pass. The gather
// WQE of a write reply carries two segments (header + one value block)
// and the copy rungs pack one block too, so the values are staged
// contiguously first and the pins released — the reply ladder then
// sends a block that owns no pin.
func (s *Server) amMGetComplete(slotted bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		c := connOf(ep)
		w := c.w
		replyCtr, slot, cur, err := newMGetKeyCursor(hdr, slotted)
		if err != nil {
			return
		}
		items := w.mgetItems[:0]
		w.reply = beginMGetReply(w.reply[:0])
		total, found := 0, 0
		for {
			key, ok := cur.next()
			if !ok {
				break
			}
			s.opCharge(clk, ep)
			it, hit := s.store.getPinned(key, chargeFirst(clk))
			if !hit {
				continue
			}
			w.reply = appendMGetReplyItem(w.reply, key, it.flags, it.casID, int(it.nbytes))
			items = append(items, it)
			total += int(it.nbytes)
			found++
		}
		finishMGetReply(w.reply, 0, found)
		win := c.wrWin(slot)
		band := s.replyBand(ep, win, len(w.reply)+total)
		// Assemble the block in one pre-sized copy straight out of the
		// pinned slab chunks; the pins also keep eviction from recycling a
		// chunk between lookup and copy. An eager reply is packed into the
		// send buffer synchronously, so the worker's value arena can stage
		// it; a written or rendezvous block is read by the HCA or the
		// client later and needs a buffer of its own. A punted batch
		// (bandPunt) stages nothing.
		var values []byte
		switch band {
		case bandPunt:
		case bandEager:
			if cap(w.vals) < total {
				w.vals = make([]byte, 0, total)
			}
			values = w.vals[:0]
		default:
			values = make([]byte, 0, total)
		}
		for i, it := range items {
			if band != bandPunt {
				values = append(values, it.value()...)
			}
			s.store.unpin(it)
			items[i] = nil
		}
		w.mgetItems = items[:0]
		clk.Advance(simnet.BytesDuration(len(values), s.ucrRT.Config().PackBytesPerSec))
		s.sendValue(clk, c, ep, band, valueReply{mget: true, ctr: replyCtr, win: win, value: values})
	}
}

// replyBand names one rung of the reply ladder.
type replyBand int

const (
	bandWrite      replyBand = iota // gather-write into the client's slot + notify
	bandEager                       // packed into the reply transaction
	bandPunt                        // UD only: status-only "re-issue over RC"
	bandRendezvous                  // client RDMA-reads the block
)

// replyBand is the server's one reply-path decision for a found value:
// the ordered ladder write-into-slot → eager → UD punt → rendezvous,
// judged on the reply's total size (header included), the endpoint's
// class and the window the request advertised (zero-length: none). The
// write rung wants a reliable endpoint (write replies never target a
// datagram peer), a total past the crossover — below it the eager copy
// is cheaper than write + notify — and room in the slot.
func (s *Server) replyBand(ep *ucr.Endpoint, win ucr.WindowDesc, total int) replyBand {
	switch {
	case ep.Reliability() == ucr.Reliable && total > s.cfg.WriteReplyEager && total <= win.Len:
		return bandWrite
	case total <= ep.MaxEager():
		return bandEager
	case ep.Reliability() == ucr.Unreliable:
		// No rendezvous on UD: tell the client to re-issue over its RC
		// endpoint rather than failing the op.
		return bandPunt
	default:
		return bandRendezvous
	}
}

// valueReply is a found GET/MGET value on its way out: w.reply holds
// the encoded reply header, value the data block. item is the pinned
// slab chunk value aliases (GET); an MGET block is a staged copy that
// owns no pin.
type valueReply struct {
	mget  bool
	ctr   ucr.CounterID
	win   ucr.WindowDesc
	value []byte
	item  *item
}

// sendValue executes one rung of the reply ladder and owns the pin
// lifecycle: a reply the HCA or the client reads asynchronously (write,
// rendezvous) keeps its item pinned in pendingPins until the transfer's
// origin counter fires — directly addressing the corruption hazard the
// paper raises for designs that let clients read server memory
// unsupervised (§III) — and every other exit unpins at once. A refused
// write post (a failing endpoint, or a window its bounds check rejects)
// re-enters the ladder without the window.
func (s *Server) sendValue(clk *simnet.VClock, c *ucrConn, ep *ucr.Endpoint, band replyBand, r valueReply) {
	w := c.w
	msg := AMGetReply
	if r.mget {
		msg = AMMGetReply
	}
	if band == bandWrite {
		// The value segment references its source in place. WriteReply
		// guarantees the counter fires on success AND failure, so the pin
		// sweep always releases it.
		ctr := s.ucrRT.NewCounter()
		if err := ep.WriteReply(clk, w.reply, r.value, r.win, 0, ctr); err == nil {
			w.pendingPins = append(w.pendingPins, pendingPin{ctr: ctr, item: r.item})
			if r.mget {
				w.reply = appendMGetWNotify(w.reply[:0], MGetWNotify{
					Status: AMOK, HdrLen: uint32(len(w.reply)), DataLen: uint32(len(r.value)),
				})
				msg = AMMGetWNotify
			} else {
				w.reply = appendGetWNotify(w.reply[:0], GetWNotify{
					Status: AMOK, Flags: r.item.flags, CAS: r.item.casID, ValueLen: uint32(len(r.value)),
				})
				msg = AMGetWNotify
			}
			_ = ep.Send(clk, msg, w.reply, nil, nil, r.ctr, nil)
			return
		}
		s.ucrRT.FreeCounter(ctr)
		band = s.replyBand(ep, ucr.WindowDesc{}, len(w.reply)+len(r.value))
	}
	if band == bandRendezvous && r.item != nil {
		// The client will RDMA-read straight from the item's chunk.
		ctr := s.ucrRT.NewCounter()
		if err := ep.Send(clk, msg, w.reply, r.value, ctr, r.ctr, nil); err != nil {
			s.store.unpin(r.item)
			s.ucrRT.FreeCounter(ctr)
			return
		}
		w.pendingPins = append(w.pendingPins, pendingPin{ctr: ctr, item: r.item})
		return
	}
	switch {
	case band != bandPunt: // eager, or an MGET block the client reads by rendezvous
		_ = ep.Send(clk, msg, w.reply, r.value, nil, r.ctr, nil)
	case r.mget:
		// MGetReply has no status field and its wire format is frozen:
		// the payload-free retry marker tells the client to re-issue.
		_ = ep.Send(clk, AMMGetRetry, nil, nil, nil, r.ctr, nil)
	default:
		w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMTooBig})
		_ = ep.Send(clk, AMGetReply, w.reply, nil, nil, r.ctr, nil)
	}
	if r.item != nil {
		// The eager send packed the value out of slab memory before
		// returning, so the pin can go.
		s.store.unpin(r.item)
	}
}

// amStoreHeader stages the incoming value for a conditional store in a
// landing from the context's pool, not slab memory: whether a
// conditional store allocates at all is decided by the store op in the
// completion handler, which hands the landing back — eager and
// rendezvous transfers alike.
func (s *Server) amStoreHeader(_ *simnet.VClock, ep *ucr.Endpoint, _ []byte, dataLen int, _ ucr.CounterID) []byte {
	return ep.Context().Buf(dataLen)
}

// amStoreComplete serves the conditional storage commands. The value
// copy into the slab happens under the lock (like the sockets path, and
// unlike AMSet's RDMA-lands-first fast path), so it extends the hold.
func (s *Server) amStoreComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	defer ep.Context().Recycle(data)
	w := connOf(ep).w
	req, err := decodeStoreReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	res := s.store.store(req.op, req.key, req.flags, req.exptime, data, req.cas, chargeFirst(clk))
	if req.replyCtr == 0 {
		return
	}
	status := AMOK
	if res != Stored {
		status = AMError
	}
	w.reply = appendStatusReply(w.reply[:0], StatusReply{Status: status, Result: res})
	_ = ep.Send(clk, AMSetReply, w.reply, nil, nil, req.replyCtr, nil)
}

// amArmComplete is the capability exchange: it installs the
// connection's reply-arena slot table, if one was offered, and answers
// with the one-sided directory descriptor, if the index is armed.
// Reliable endpoints only — write replies never target a datagram peer.
func (s *Server) amArmComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	req, err := decodeArmReq(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	rep := ArmReply{Status: AMOK}
	switch {
	case req.Slots == 0:
	case req.SlotLen == 0 || ep.Reliability() != ucr.Reliable:
		rep.Status = AMError
	default:
		connOf(ep).arena = req
	}
	if x := s.store.pub; x != nil {
		rep.OS = OSDesc{Enabled: true, Buckets: osBuckets, Slots: osSlots, Dir: x.dirWin.Desc()}
	}
	_ = ep.Send(clk, AMArmReply, encodeArmReply(rep), nil, nil, req.ReplyCtr, nil)
}

// amDeleteComplete serves delete.
func (s *Server) amDeleteComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := connOf(ep).w
	req, err := DecodeKeyReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	status := amMiss
	if s.store.delete(req.Key, chargeFirst(clk)) {
		status = AMOK
	}
	w.reply = appendStatusReply(w.reply[:0], StatusReply{Status: status})
	_ = ep.Send(clk, AMDeleteReply, w.reply, nil, nil, req.ReplyCtr, nil)
}

// amNumComplete serves incr/decr.
func (s *Server) amNumComplete(incr bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		w := connOf(ep).w
		replyCtr, delta, key, err := decodeNumReqView(hdr)
		if err != nil {
			return
		}
		s.opCharge(clk, ep)
		val, found, bad, oom := s.store.incrDecr(key, delta, incr, chargeFirst(clk))
		status := AMOK
		switch {
		case !found:
			status = amMiss
		case bad:
			status = AMBadValue
		case oom:
			status = AMError
		}
		w.reply = appendNumReply(w.reply[:0], NumReply{Status: status, Value: val})
		_ = ep.Send(clk, AMNumReply, w.reply, nil, nil, replyCtr, nil)
	}
}
