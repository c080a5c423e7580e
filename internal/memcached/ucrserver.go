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
// from per-shard free lists, and replies are built in per-worker arenas
// whose reuse rules are documented on the worker struct.

// setPending carries state between the Set header and completion
// handlers on one endpoint (FIFO; UCR delivers in order per endpoint).
type setPending struct {
	item     *Item
	res      StoreResult
	replyCtr ucr.CounterID
}

// workerFor resolves the worker that accepted an endpoint.
func (s *Server) workerFor(ep *ucr.Endpoint) *worker { return ep.UserData.(*worker) }

// pendSet queues an in-flight Set state for ep on its worker.
func (w *worker) pendSet(ep *ucr.Endpoint, p setPending) {
	q := w.pendingSets[ep]
	if q == nil {
		q = &setPendQ{}
		w.pendingSets[ep] = q
	}
	q.push(p)
}

// scratchMax caps the landing and staging buffers a worker keeps
// between requests; one oversized request must not pin a max-item-size
// buffer per worker for the server's lifetime.
const scratchMax = 64 << 10

// pooledBuf returns buf resized to n, growing it up to scratchMax;
// requests beyond the cap get a one-off buffer that is not retained.
func pooledBuf(buf *[]byte, n int) []byte {
	if n > scratchMax {
		return make([]byte, n)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n, scratchMax)
	}
	return (*buf)[:n]
}

// scratchBuf returns a throwaway landing buffer used when item
// allocation failed but the transfer must still complete.
func (w *worker) scratchBuf(n int) []byte { return pooledBuf(&w.scratch, n) }

// storeBuf returns the eager conditional-store staging buffer. It is
// only safe for eager transfers: handleEager copies the value in and
// runs the completion handler synchronously, so the buffer is consumed
// before the worker touches another request. Rendezvous stores land via
// an asynchronous RDMA read and must use a fresh buffer.
func (w *worker) storeBuf(n int) []byte { return pooledBuf(&w.storeScratch, n) }

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
	// A plain AMGet/AMMGet is the slot-advertising form with no slot:
	// one handler serves both ids, told only which header layout to parse.
	for _, slotted := range []bool{false, true} {
		get, mget := AMGet, AMMGet
		if slotted {
			get, mget = AMGetW, AMMGetW
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
// Read to that destination memory location" (§V-B).
func (s *Server) amSetHeader(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
	w := s.workerFor(ep)
	req, err := DecodeSetReqView(hdr)
	if err != nil {
		w.pendSet(ep, setPending{res: NotStored})
		return w.scratchBuf(dataLen)
	}
	it, res := s.store.AllocateItem(req.Key, req.Flags, req.Exptime, dataLen, clk.Now())
	if res != Stored {
		w.pendSet(ep, setPending{res: res, replyCtr: req.ReplyCtr})
		return w.scratchBuf(dataLen)
	}
	w.pendSet(ep, setPending{item: it, res: Stored, replyCtr: req.ReplyCtr})
	return it.Value()
}

// amSetComplete commits the item and answers with AM 2 (§V-B).
func (s *Server) amSetComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	q := w.pendingSets[ep]
	if q == nil {
		return
	}
	p, ok := q.pop()
	if !ok {
		return
	}
	s.opCharge(clk, ep)
	status := AMOK
	if p.item != nil {
		// No copy extends the hold: the value already landed in slab
		// memory via RDMA before the commit takes the lock (§V-B).
		chargeLock(s.store, clk, clk.Now(), p.item.key, 0)
		s.store.CommitItem(p.item, clk.Now())
	} else {
		status = AMError
	}
	s.OpsServed.Add(1)
	if p.replyCtr == 0 {
		return
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status, Result: p.res})
	_ = ep.Send(clk, AMSetReply, w.reply, nil, nil, p.replyCtr, nil)
}

// amGetComplete looks the item up and answers with AM 2 carrying the
// value (§V-C); how the value travels is the reply ladder's decision
// (replyBand). slotted selects the AMGetW header layout.
func (s *Server) amGetComplete(slotted bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		w := s.workerFor(ep)
		req, err := DecodeGetReqView(hdr, slotted)
		if err != nil {
			return
		}
		s.opCharge(clk, ep)
		s.OpsServed.Add(1)
		// The reply is served from the pinned item's slab memory, so no
		// copy extends the hold (§V-C).
		chargeLock(s.store, clk, clk.Now(), req.Key, 0)
		it, ok := s.store.GetPinned(req.Key, clk.Now())
		if !ok {
			w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMMiss})
			_ = ep.Send(clk, AMGetReply, w.reply, nil, nil, req.ReplyCtr, nil)
			return
		}
		w.reply = AppendGetReply(w.reply[:0], GetReply{Status: AMOK, Flags: it.Flags(), CAS: it.CAS()})
		win := w.wrWin(ep, req.Slot)
		band := s.replyBand(ep, win, len(w.reply)+len(it.Value()))
		s.sendValue(clk, w, ep, band, valueReply{ctr: req.ReplyCtr, win: win, value: it.Value(), item: it})
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
		w := s.workerFor(ep)
		replyCtr, slot, cur, err := NewMGetKeyCursor(hdr, slotted)
		if err != nil {
			return
		}
		items := w.mgetItems[:0]
		w.reply = BeginMGetReply(w.reply[:0])
		total, found := 0, 0
		for {
			key, ok := cur.Next()
			if !ok {
				break
			}
			s.opCharge(clk, ep)
			s.OpsServed.Add(1)
			chargeLock(s.store, clk, clk.Now(), key, 0)
			it, hit := s.store.GetPinned(key, clk.Now())
			if !hit {
				continue
			}
			w.reply = AppendMGetReplyItem(w.reply, key, it.Flags(), it.CAS(), len(it.Value()))
			items = append(items, it)
			total += len(it.Value())
			found++
		}
		FinishMGetReply(w.reply, 0, found)
		win := w.wrWin(ep, slot)
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
				values = append(values, it.Value()...)
			}
			s.store.Unpin(it)
			items[i] = nil
		}
		w.mgetItems = items[:0]
		clk.Advance(simnet.BytesDuration(len(values), s.ucrRT.Config().PackBytesPerSec))
		s.sendValue(clk, w, ep, band, valueReply{mget: true, ctr: replyCtr, win: win, value: values})
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
	item  *Item
}

// sendValue executes one rung of the reply ladder and owns the pin
// lifecycle: a reply the HCA or the client reads asynchronously (write,
// rendezvous) keeps its item pinned in pendingPins until the transfer's
// origin counter fires — directly addressing the corruption hazard the
// paper raises for designs that let clients read server memory
// unsupervised (§III) — and every other exit unpins at once. A refused
// write post (a failing endpoint, or the stale-window mutation's bounds
// rejection) re-enters the ladder without the window.
func (s *Server) sendValue(clk *simnet.VClock, w *worker, ep *ucr.Endpoint, band replyBand, r valueReply) {
	msg := AMGetReply
	if r.mget {
		msg = AMMGetReply
	}
	if band == bandWrite {
		// The value segment references its source in place. WriteReply
		// guarantees the counter fires on success AND failure, so the pin
		// sweep always releases it.
		ctr := s.ucrRT.NewCounter()
		if err := ep.WriteReply(clk, w.reply, r.value, w.writeReplyWin(ep, r.win), 0, ctr); err == nil {
			w.pendingPins = append(w.pendingPins, pendingPin{ctr: ctr, item: r.item})
			if r.mget {
				w.reply = AppendMGetWNotify(w.reply[:0], MGetWNotify{
					Status: AMOK, HdrLen: uint32(len(w.reply)), DataLen: uint32(len(r.value)),
				})
				msg = AMMGetWNotify
			} else {
				w.reply = AppendGetWNotify(w.reply[:0], GetWNotify{
					Status: AMOK, Flags: r.item.Flags(), CAS: r.item.CAS(), ValueLen: uint32(len(r.value)),
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
			s.store.Unpin(r.item)
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
		s.store.Unpin(r.item)
	}
}

// amStoreHeader stages the incoming value for a conditional store. The
// value lands in a plain buffer, not slab memory: whether a conditional
// store allocates at all is decided under the shard lock in the
// completion handler. Eager transfers reuse the worker's staging arena;
// rendezvous transfers get a fresh buffer (the RDMA read that fills it
// completes asynchronously).
func (s *Server) amStoreHeader(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
	if len(hdr)+dataLen <= ep.MaxEager() {
		return s.workerFor(ep).storeBuf(dataLen)
	}
	return make([]byte, dataLen)
}

// amStoreComplete serves the conditional storage commands. The value
// copy into the slab happens under the lock (like the sockets path, and
// unlike AMSet's RDMA-lands-first fast path), so it extends the hold.
func (s *Server) amStoreComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeStoreReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	s.OpsServed.Add(1)
	chargeLock(s.store, clk, clk.Now(), req.Key, len(data))
	res := s.store.Store(req.Op, req.Key, req.Flags, req.Exptime, data, req.CAS, clk.Now())
	if req.ReplyCtr == 0 {
		return
	}
	status := AMOK
	if res != Stored {
		status = AMError
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status, Result: res})
	_ = ep.Send(clk, AMSetReply, w.reply, nil, nil, req.ReplyCtr, nil)
}

// amArmComplete is the capability exchange: it installs the
// connection's reply-arena slot table, if one was offered, and answers
// with the one-sided directory descriptor, if the index is armed.
// Reliable endpoints only — write replies never target a datagram peer.
func (s *Server) amArmComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeArmReq(hdr)
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
		if w.wrTabs == nil {
			w.wrTabs = make(map[*ucr.Endpoint]ArmReq)
		}
		w.wrTabs[ep] = req
	}
	if x := s.store.OneSidedIndex(); x != nil {
		rep.OS = OSDesc{Enabled: true, Buckets: x.Buckets(), Slots: x.Slots(), Dir: x.DirDesc()}
	}
	_ = ep.Send(clk, AMArmReply, EncodeArmReply(rep), nil, nil, req.ReplyCtr, nil)
}

// amDeleteComplete serves delete.
func (s *Server) amDeleteComplete(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
	w := s.workerFor(ep)
	req, err := DecodeKeyReqView(hdr)
	if err != nil {
		return
	}
	s.opCharge(clk, ep)
	s.OpsServed.Add(1)
	chargeLock(s.store, clk, clk.Now(), req.Key, 0)
	status := AMMiss
	if s.store.Delete(req.Key, clk.Now()) {
		status = AMOK
	}
	w.reply = AppendStatusReply(w.reply[:0], StatusReply{Status: status})
	_ = ep.Send(clk, AMDeleteReply, w.reply, nil, nil, req.ReplyCtr, nil)
}

// amNumComplete serves incr/decr.
func (s *Server) amNumComplete(incr bool) ucr.CompletionHandler {
	return func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
		w := s.workerFor(ep)
		replyCtr, delta, key, err := DecodeNumReqView(hdr)
		if err != nil {
			return
		}
		s.opCharge(clk, ep)
		s.OpsServed.Add(1)
		chargeLock(s.store, clk, clk.Now(), key, 0)
		val, found, bad, oom := s.store.IncrDecr(key, delta, incr, clk.Now())
		status := AMOK
		switch {
		case !found:
			status = AMMiss
		case bad:
			status = AMBadValue
		case oom:
			status = AMError
		}
		w.reply = AppendNumReply(w.reply[:0], NumReply{Status: status, Value: val})
		_ = ep.Send(clk, AMNumReply, w.reply, nil, nil, replyCtr, nil)
	}
}
