package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// UCRTransport speaks the paper's active-message protocol (§V): every
// request is AM 1 carrying the client's counter C; the client then
// blocks on C with a timeout while driving its progress context, and
// the server's AM 2 reply targets C. Get replies land in a client-local
// buffer pool, sized on demand when the header handler learns the item
// length (§V-C).
//
// Every request gets a fresh counter, whose id doubles as the request
// tag: the reply AM targets that counter, so the reply handlers route
// by tag into a slot table. With one request in flight this changes
// nothing; with a pipelined window it lets any number of replies land
// out of order, and a late duplicate from a timed-out attempt (its tag
// no longer in the table) is dropped instead of clobbering the slot of
// whatever request happens to be waiting.
//
// One op lifecycle serves every caller: a builder (setOp, readOp,
// deleteOp, numOp) opens the tagged op and encodes its request, a
// driver sends it and waits for the reply (do for blocking calls — a
// concentrated Session's included, which is this transport behind a
// lock — and ucrPipeline for windows), a result reader decodes what
// landed, and finishOp retires it.
type UCRTransport struct {
	name    string
	rt      *ucr.Runtime
	ctx     *ucr.Context
	ep      *ucr.Endpoint
	timeout simnet.Duration

	// UD small-get mode (§VII): an optional unreliable endpoint to the
	// same server; readOp says which reads ride it. A lost datagram is
	// recovered by the same AM-level retransmission budget the RC path
	// uses for lossy fabrics. Mutating ops never use it.
	udEP *ucr.Endpoint

	// Tagged reply slots, written by the AM handlers while this
	// transport's owner drives progress.
	slots    map[ucr.CounterID]*amOp
	scratch  []byte   // landing space for replies whose tag matches no slot
	freeBufs [][]byte // pooled landing buffers for get/mget values
	freeOps  []*amOp

	os    osState // one-sided GET fast path (see onesided.go)
	wr    wrState // write-based reply arena (see wrreply.go)
	paths PathStats
	last  ReadPath // path that served the most recent read
}

// ReadPath names one way a read (GET/MGET) can be served.
type ReadPath uint8

const (
	PathAM       ReadPath = iota // two-sided AM over RC: eager or rendezvous reply (§V-C)
	PathWrite                    // reply RDMA-written into a client arena slot (wrreply.go)
	PathUD                       // request and reply as unreliable datagrams
	PathOneSided                 // client-issued RDMA reads, no server AM (onesided.go)
	numReadPaths
)

// PathCounters is one read path's traffic.
type PathCounters struct {
	Hits      uint64 // reads the path answered (a miss it answered counts)
	Fallbacks uint64 // reads that tried the path and were handed on to the next
	Retries   uint64 // UD: AM-level retransmissions; one-sided: seqlock conflicts
}

// PathStats is the transport's read accounting, indexed by path. Tests
// and the memcheck sweeps use the counters as vacuity guards: an armed
// path with zero Hits validated nothing.
type PathStats struct {
	By [numReadPaths]PathCounters
}

// Add folds o's counters into s (summing over transports).
func (s *PathStats) Add(o *PathStats) {
	for p := range s.By {
		s.By[p].Hits += o.By[p].Hits
		s.By[p].Fallbacks += o.By[p].Fallbacks
		s.By[p].Retries += o.By[p].Retries
	}
}

// PathStats exposes the live counters (read them between operations).
func (t *UCRTransport) PathStats() *PathStats { return &t.paths }

// LastReadPath reports the path that served the most recent read; the
// client's observer asks it right after a Get to tag one-sided hits.
func (t *UCRTransport) LastReadPath() ReadPath { return t.last }

// WriteReplyHits reports how many replies landed through the write-reply
// arena.
func (t *UCRTransport) WriteReplyHits() uint64 { return t.paths.By[PathWrite].Hits }

// amOp is one in-flight request: its tag (= reply counter id), the
// request as issued, and where the reply landed.
type amOp struct {
	tag ucr.CounterID
	ctr *ucr.Counter
	// The request is replayed from these fields on every (re-)send — a
	// closure per op would allocate. hdr is the op's reusable encode
	// buffer; it survives pool recycling.
	ep  *ucr.Endpoint // endpoint the request (and any re-send) uses
	clk *simnet.VClock
	msg uint8
	hdr []byte
	val []byte // Set value; nil for every other request

	lend   []byte // caller-lent value buffer (GetInto); nil = pool
	pooled bool   // data came from the transport pool: recycle on finish
	data   []byte // landed value bytes
	wrSlot int32  // write-reply slot index + 1; 0 = none
	// Deferred write-reply landing: the notify recorded wrLen slot bytes
	// at wrOff pending copy-out (see wrMaterialize). The slot stays busy
	// until the landing materializes and the op is finished.
	wrPend       bool
	wrOff, wrLen int
	path         ReadPath // how a read's reply arrived

	status memcached.StatusReply
	get    memcached.GetReply
	mget   memcached.MGetReply
	num    memcached.NumReply
	arm    memcached.ArmReply
}

func (op *amOp) sendAM() error {
	return op.ep.Send(op.clk, op.msg, op.hdr, op.val, nil, 0, nil)
}

// DialUCR establishes a reliable UCR endpoint to a memcached server and
// installs the reply handlers on the client runtime (idempotent).
func DialUCR(rt *ucr.Runtime, ctx *ucr.Context, to *simnet.Node, service string, behaviors Behaviors, clk *simnet.VClock) (*UCRTransport, error) {
	RegisterClientHandlers(rt)
	ep, err := rt.Dial(ctx, to, service, ucr.Reliable, clk, 0)
	if err != nil {
		return nil, err
	}
	t := &UCRTransport{
		name:    to.Name() + "/" + service,
		rt:      rt,
		ctx:     ctx,
		ep:      ep,
		timeout: behaviors.OpTimeout,
		slots:   make(map[ucr.CounterID]*amOp),
	}
	ep.UserData = t
	return t, nil
}

// opFor is the reply handlers' one tag→slot lookup: the transport that
// owns ep and the in-flight op tag names — nil for a retired tag (a
// late duplicate) or an endpoint that is not a transport's.
func opFor(ep *ucr.Endpoint, tag ucr.CounterID) (*UCRTransport, *amOp) {
	t, ok := ep.UserData.(*UCRTransport)
	if !ok {
		return nil, nil
	}
	return t, t.slots[tag]
}

// RegisterClientHandlers installs the AM 2 reply handlers on a client
// runtime. Safe to call repeatedly.
func RegisterClientHandlers(rt *ucr.Runtime) {
	// A reply either carries no data block or lands its value where
	// landingBuf says — §V-C: the client learns the item size in the
	// header handler and picks the destination there.
	noData := func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil }
	landing := func(_ *simnet.VClock, ep *ucr.Endpoint, _ []byte, dataLen int, tag ucr.CounterID) []byte {
		t, ok := ep.UserData.(*UCRTransport)
		if !ok {
			return nil
		}
		return t.landingBuf(tag, dataLen)
	}
	// on registers a reply AM whose completion runs fn on the tagged op;
	// a reply whose tag was retired is suppressed.
	on := func(id uint8, header ucr.HeaderHandler, fn func(t *UCRTransport, op *amOp, hdr, data []byte)) {
		rt.RegisterHandler(id, ucr.Handler{Header: header,
			Completion: func(_ *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
				t, op := opFor(ep, tag)
				if op == nil && t != nil && id == memcached.AMGetReply {
					// The mutation build accepts a late duplicate into a live
					// slot instead — the bug class the tags exist to prevent.
					// The whole completion event lands on the victim: payload
					// AND counter fire, so the victim's waiter returns this
					// stale reply as its own.
					if op = t.dupVictim(ep); op != nil {
						op.ctr.MutBump()
					}
				}
				if op != nil {
					fn(t, op, hdr, data)
				}
			}})
	}
	status := func(_ *UCRTransport, op *amOp, hdr, _ []byte) {
		op.status, _ = memcached.DecodeStatusReply(hdr)
	}
	on(memcached.AMSetReply, noData, status)
	on(memcached.AMDeleteReply, noData, status)
	on(memcached.AMNumReply, noData, func(_ *UCRTransport, op *amOp, hdr, _ []byte) {
		op.num, _ = memcached.DecodeNumReply(hdr)
	})
	on(memcached.AMArmReply, noData, func(_ *UCRTransport, op *amOp, hdr, _ []byte) {
		op.arm, _ = memcached.DecodeArmReply(hdr)
	})
	on(memcached.AMGetReply, landing, func(_ *UCRTransport, op *amOp, hdr, data []byte) {
		op.get, _ = memcached.DecodeGetReply(hdr)
		op.data = data
	})
	on(memcached.AMMGetReply, landing, func(_ *UCRTransport, op *amOp, hdr, data []byte) {
		op.mget, _ = memcached.DecodeMGetReply(hdr)
		op.data = data
	})
	on(memcached.AMMGetRetry, noData, func(_ *UCRTransport, op *amOp, _, _ []byte) {
		op.get.Status = memcached.AMTooBig // the batch outgrew the datagram
	})
	on(memcached.AMGetWNotify, noData, (*UCRTransport).onGetWNotify)
	on(memcached.AMMGetWNotify, noData, (*UCRTransport).onMGetWNotify)
}

// landingBuf picks where a reply value lands: the tagged request's lent
// buffer when it fits, a pooled buffer otherwise — or the transport's
// scratch space when the tag matches no slot (a late duplicate from a
// timed-out attempt), which lands there and is dropped without touching
// any live request.
func (t *UCRTransport) landingBuf(tag ucr.CounterID, dataLen int) []byte {
	if dataLen == 0 {
		return nil
	}
	op := t.slots[tag]
	if op == nil {
		if op = t.dupVictim(t.udEP); op == nil { // non-nil: mutation build, clobber a live slot
			return t.scratchFor(dataLen)
		}
	}
	t.land(op, dataLen)
	return op.data
}

// land points op.data at n bytes of landing space under the op's
// landing discipline: the lent buffer when it fits, a pooled one
// otherwise.
func (t *UCRTransport) land(op *amOp, n int) {
	if op.lend != nil && cap(op.lend) >= n {
		op.pooled = false
		op.data = op.lend[:n]
	} else {
		op.pooled = true
		op.data = t.takeBuf(n)
	}
}

// dupVictim is the mut_ud_dup_ack seeded bug: instead of suppressing a
// reply whose tag matches no slot (a late duplicate from a retransmitted
// UD request whose original answer also arrived), it "accepts it twice"
// by routing it into whichever live slot has the lowest tag — exactly
// the clobbering the tagged-counter scheme prevents. Always nil in a
// normal build; only meaningful when a UD endpoint exists (ep non-nil).
func (t *UCRTransport) dupVictim(ep *ucr.Endpoint) *amOp {
	if !memcached.MutUDDupAck || ep == nil {
		return nil
	}
	var victim *amOp
	for tag, op := range t.slots {
		if victim == nil || tag < victim.tag {
			victim = op
		}
	}
	return victim
}

// scratchCap bounds the retained stale-reply landing buffer.
const scratchCap = 64 << 10

func (t *UCRTransport) scratchFor(n int) []byte {
	if n > scratchCap {
		return make([]byte, n)
	}
	if cap(t.scratch) < n {
		t.scratch = make([]byte, n, scratchCap)
	}
	return t.scratch[:n]
}

// takeBuf pops a pooled landing buffer (growing it if undersized).
func (t *UCRTransport) takeBuf(n int) []byte {
	if k := len(t.freeBufs); k > 0 {
		b := t.freeBufs[k-1]
		t.freeBufs = t.freeBufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (t *UCRTransport) recycleBuf(b []byte) {
	if cap(b) > 0 && len(t.freeBufs) < 16 {
		t.freeBufs = append(t.freeBufs, b[:cap(b)])
	}
}

// newOp opens a tagged request slot around a fresh counter, bound to
// the RC endpoint. Counter ids are never reused by the runtime, so a
// tag uniquely names one request for the transport's lifetime.
func (t *UCRTransport) newOp(clk *simnet.VClock) *amOp {
	var op *amOp
	if k := len(t.freeOps); k > 0 {
		op = t.freeOps[k-1]
		t.freeOps = t.freeOps[:k-1]
	} else {
		op = &amOp{}
	}
	op.ctr = t.rt.NewCounter()
	op.tag = op.ctr.ID()
	op.ep = t.ep
	op.clk = clk
	t.slots[op.tag] = op
	return op
}

// finishOp retires a request: the tag leaves the slot table (late
// duplicates now land in scratch), the counter is freed (their bumps
// become no-ops), and the pooled landing buffer is recycled. A
// write-reply slot is released unconditionally — RC FIFO on the
// transport's one QP orders any late write to it before a later
// request's write, so recycling can never expose stale data.
func (t *UCRTransport) finishOp(op *amOp) {
	delete(t.slots, op.tag)
	t.rt.FreeCounter(op.ctr)
	if op.pooled {
		t.recycleBuf(op.data)
	}
	if op.wrSlot != 0 {
		t.wrRelease(op.wrSlot - 1)
	}
	*op = amOp{hdr: op.hdr[:0]}
	t.freeOps = append(t.freeOps, op)
}

// Name identifies the server.
func (t *UCRTransport) Name() string { return t.name }

// Endpoint exposes the UCR endpoint (tests).
func (t *UCRTransport) Endpoint() *ucr.Endpoint { return t.ep }

// EnableUD arms the UD small-get mode with an unreliable endpoint to the
// same server, dialed in the same progress context (one CQ drives both).
// The server needs no arming for it: any endpoint may carry a GET.
func (t *UCRTransport) EnableUD(ep *ucr.Endpoint) {
	ep.UserData = t
	t.udEP = ep
}

// Arm runs the capability exchange for the opt-in read paths that need
// the server's cooperation, as ONE blocking AMArm round trip: it
// registers a write-reply arena when writeReplies is set (see
// wrreply.go) and adopts the server's one-sided directory when oneSided
// is set and the server publishes one (see onesided.go). A transport
// that arms neither sends nothing, so a default dial's traffic is
// untouched. The ordinary op machinery carries the exchange, so lossy
// fabrics retry it like any request; when it still fails the endpoint
// is already isolated (see do), so there is no AM path left to degrade
// to and the error fails the dial like an unreachable server does. The
// arena's registration is dropped on every failure. RC endpoints only.
func (t *UCRTransport) Arm(clk *simnet.VClock, oneSided, writeReplies bool) error {
	if !oneSided && !writeReplies {
		return nil
	}
	var req memcached.ArmReq
	var win *ucr.Window
	if writeReplies {
		var err error
		if win, err = t.rt.CreateWindow(make([]byte, wrSlots*wrSlotLen), nil); err != nil {
			return err
		}
		d := win.Desc()
		req = memcached.ArmReq{Addr: d.Addr, RKey: d.RKey, SlotLen: wrSlotLen, Slots: wrSlots}
	}
	rep, err := t.armExchange(clk, req)
	if err != nil {
		if win != nil {
			win.Close()
		}
		return err
	}
	if win != nil {
		t.wr.arm(win)
	}
	if oneSided && rep.OS.Enabled && rep.OS.Buckets > 0 && rep.OS.Slots > 0 {
		t.os.arm(rep.OS)
	}
	return nil
}

// armExchange is Arm's AMArm round trip.
func (t *UCRTransport) armExchange(clk *simnet.VClock, req memcached.ArmReq) (memcached.ArmReply, error) {
	op := t.newOp(clk)
	req.ReplyCtr = op.tag
	op.msg = memcached.AMArm
	op.hdr = memcached.AppendArmReq(op.hdr, req)
	if err := t.do(clk, op); err != nil {
		return memcached.ArmReply{}, err
	}
	rep := op.arm
	t.finishOp(op)
	if rep.Status != memcached.AMOK {
		return rep, ErrServerDown
	}
	return rep, nil
}

// do sends op and blocks on its counter (§V-B: "a blocking call with
// client specified timeout"): one send, then waitDone one completion at
// a time. On error the op is retired; on success the caller reads the
// slot and retires it.
func (t *UCRTransport) do(clk *simnet.VClock, op *amOp) error {
	if op.sendAM() != nil {
		t.finishOp(op)
		return ErrServerDown
	}
	err := t.waitDone(clk, op, 1)
	if err != nil {
		t.finishOp(op)
	}
	return err
}

// perAttempt splits the op timeout across the retry budget.
func (t *UCRTransport) perAttempt(attempts int) simnet.Duration {
	if t.timeout <= 0 {
		return 0
	}
	per := t.timeout / simnet.Duration(attempts)
	if per <= 0 {
		per = 1
	}
	return per
}

// waitDone is the one wait for a sent op — do's, and a pipelined
// window's, whose ops went out as they were admitted. It drives progress,
// draining the CQ in batches of at most batch. With the runtime's
// AMRetries knob set, a timed-out request is re-sent — the per-attempt
// wait is the op timeout split across attempts, so the overall deadline
// holds; on the UD endpoint, where datagram loss is silent, that is the
// client-side retransmission (the tag routes the reply; a late duplicate
// lands in scratch). Only after the budget is exhausted is the endpoint
// marked failed (§IV-A: the client decides the server has gone down,
// isolating this endpoint without touching the runtime). The caller owns
// retiring the op.
func (t *UCRTransport) waitDone(clk *simnet.VClock, op *amOp, batch int) error {
	if op.ctr.Value() >= 1 {
		return nil
	}
	if op.ep.Failed() {
		return ErrServerDown
	}
	attempts := 1 + t.rt.Config().AMRetries
	per := t.perAttempt(attempts)
	for a := 0; a < attempts; a++ {
		err := t.ctx.WaitCounterBatch(clk, op.ctr, 1, per, batch)
		if err == nil {
			return nil
		}
		if err != ucr.ErrTimeout {
			return ErrServerDown
		}
		if a+1 < attempts {
			if op.ep == t.udEP {
				t.paths.By[PathUD].Retries++
			}
			if op.sendAM() != nil {
				return ErrServerDown
			}
		}
	}
	op.ep.MarkFailed()
	return ErrServerDown
}

// ---- request builders -------------------------------------------------

func (t *UCRTransport) setOp(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *amOp {
	op := t.newOp(clk)
	op.msg, op.val = memcached.AMSet, value
	op.hdr = memcached.AppendSetReq(op.hdr, memcached.SetReq{
		ReplyCtr: op.tag, Flags: flags, Exptime: exptime, Key: key,
	})
	return op
}

func (t *UCRTransport) deleteOp(clk *simnet.VClock, key string) *amOp {
	op := t.newOp(clk)
	op.msg = memcached.AMDelete
	op.hdr = memcached.AppendKeyReq(op.hdr, memcached.KeyReq{ReplyCtr: op.tag, Key: key})
	return op
}

func (t *UCRTransport) numOp(clk *simnet.VClock, key string, delta uint64, incr bool) *amOp {
	op := t.newOp(clk)
	op.msg = memcached.AMDecr
	if incr {
		op.msg = memcached.AMIncr
	}
	op.hdr = memcached.AppendNumReq(op.hdr, memcached.NumReq{ReplyCtr: op.tag, Delta: delta, Key: key})
	return op
}

// readOp opens a GET (keys == nil) or MGET request and makes the
// client's one read-path decision — which endpoint carries it, under
// which AM id, advertising which reply slot — from what the transport
// can observe, cheapest reply first (DESIGN.md "Read path selection"):
//
//  1. the UD endpoint is alive and the request fits one datagram → UD,
//     plain id. Only for callers that can re-issue when the server
//     punts an oversized reply back (ud = true: the blocking calls);
//  2. the write-reply arena has a free slot → RC, slot-advertising id;
//  3. otherwise → RC, plain id.
//
// The one-sided path is not a rung here: it involves no request at
// all, so the blocking Get tries it before ever building an op.
func (t *UCRTransport) readOp(clk *simnet.VClock, key string, keys []string, lend []byte, ud bool) *amOp {
	op := t.newOp(clk)
	op.lend = lend
	if ud && t.udEP != nil && !t.udEP.Failed() {
		if op.encodeRead(key, keys); len(op.hdr) <= t.udEP.MaxEager() {
			op.ep, op.path = t.udEP, PathUD
			return op
		}
	}
	if i, ok := t.wrAcquire(); ok {
		op.wrSlot = i + 1
	}
	op.encodeRead(key, keys)
	return op
}

// encodeRead packs the read's header for the slot the op holds; the
// slot (or none) selects the AM id.
func (op *amOp) encodeRead(key string, keys []string) {
	if keys == nil {
		op.hdr, op.msg = memcached.AppendGetReq(op.hdr[:0], op.tag, op.wrSlot, key)
	} else {
		op.hdr, op.msg = memcached.AppendMGetReq(op.hdr[:0], op.tag, op.wrSlot, keys)
	}
}

// ---- result readers ---------------------------------------------------

func (op *amOp) stored() memcached.StoreResult {
	if op.status.Status != memcached.AMOK {
		return op.status.Result
	}
	return memcached.Stored
}

func (op *amOp) deleted() bool { return op.status.Status == memcached.AMOK }

func (op *amOp) number() (val uint64, found, bad bool, err error) {
	switch op.num.Status {
	case memcached.AMOK:
		return op.num.Value, true, false, nil
	case memcached.AMBadValue:
		return 0, true, true, nil
	case memcached.AMError:
		// Server-side failure (e.g. OOM growing the value): distinct
		// from a miss and from a non-numeric value.
		return 0, true, false, ErrServerError
	default:
		return 0, false, false, nil
	}
}

// served accounts a settled read to the path its reply arrived by, and
// completes a deferred write-reply landing so op.data reads the same on
// every path.
func (t *UCRTransport) served(op *amOp) {
	t.wrMaterialize(op)
	t.last = op.path
	t.paths.By[op.path].Hits++
	if op.wrSlot != 0 && op.path != PathWrite {
		t.paths.By[PathWrite].Fallbacks++ // slot advertised, copy rung answered
	}
}

// getResult reads a settled GET. own forces a private copy of the value;
// otherwise it aliases the lent buffer when it landed there, and is
// copied only out of a pooled landing.
func (t *UCRTransport) getResult(op *amOp, own bool) (value []byte, flags uint32, cas uint64, hit bool) {
	t.served(op)
	if op.get.Status != memcached.AMOK {
		return nil, 0, 0, false
	}
	value = op.data
	if own || op.pooled {
		value = make([]byte, len(op.data))
		copy(value, op.data)
	}
	return value, op.get.Flags, op.get.CAS, true
}

// mgetResult adds a settled MGET's items to out as subslices of the
// landing block — the lent buffer when the block landed there, one
// private copy of a pooled landing otherwise (a call that lent nothing
// always lands pooled).
func (t *UCRTransport) mgetResult(op *amOp, out map[string][]byte) error {
	t.served(op)
	block := op.data
	if op.pooled {
		block = append([]byte(nil), op.data...)
	}
	off := 0
	for _, it := range op.mget.Items {
		end := off + it.ValueLen
		if end > len(block) {
			return memcached.ErrShortAMHeader
		}
		out[it.Key] = block[off:end:end]
		off = end
	}
	return nil
}

// ---- blocking calls (Transport) ---------------------------------------

// Set implements Transport.
func (t *UCRTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	op := t.setOp(clk, key, flags, exptime, value)
	if err := t.do(clk, op); err != nil {
		return 0, err
	}
	defer t.finishOp(op)
	return op.stored(), nil
}

// read issues one GET/MGET and blocks for its reply; the caller reads
// the op and retires it. A request that rode the UD endpoint and was
// punted (AMTooBig / AMMGetRetry: the reply outgrew the datagram) is
// transparently re-issued over RC; so is one whose UD retry budget ran
// out, which isolates only the UD endpoint.
func (t *UCRTransport) read(clk *simnet.VClock, key string, keys []string, lend []byte) (*amOp, error) {
	op := t.readOp(clk, key, keys, lend, true)
	if op.path == PathUD {
		err := t.do(clk, op)
		if err == nil && op.get.Status != memcached.AMTooBig {
			return op, nil
		}
		if err == nil {
			t.paths.By[PathUD].Fallbacks++
			t.finishOp(op)
		}
		op = t.readOp(clk, key, keys, lend, false)
	}
	if err := t.do(clk, op); err != nil {
		return nil, err
	}
	return op, nil
}

// get is Get/GetInto. With the one-sided path armed, a validated RDMA
// read serves the hit without any server AM; everything else goes
// through the two-sided protocol.
func (t *UCRTransport) get(clk *simnet.VClock, key string, lend []byte, own bool) ([]byte, uint32, uint64, bool, error) {
	t.last = PathAM
	if v, fl, cas, ok := t.oneSidedGet(clk, key, lend); ok {
		t.last = PathOneSided
		return v, fl, cas, true, nil
	}
	op, err := t.read(clk, key, nil, lend)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer t.finishOp(op)
	v, fl, cas, hit := t.getResult(op, own)
	return v, fl, cas, hit, nil
}

// Get implements Transport.
func (t *UCRTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	return t.get(clk, key, nil, true)
}

// GetInto is Get with a caller-lent value buffer: when the value fits
// in cap(buf), the reply header handler lands it directly there and the
// returned slice aliases buf — no allocation and no copy on the hot
// path. A value too large for buf is returned in a fresh allocation.
func (t *UCRTransport) GetInto(clk *simnet.VClock, key string, buf []byte) ([]byte, uint32, uint64, bool, error) {
	return t.get(clk, key, buf, false)
}

// maxMGetKeys bounds one mget AM's key batch, well under the header's
// uint16 key-count field.
const maxMGetKeys = 4096

// mgetBatch is the one mget cap: how many leading keys one mget AM may
// carry. The header counts keys in a uint16, so a larger batch would
// silently truncate on the wire (found by FuzzAMCodecs), and UCR
// carries AM headers eagerly only, so the encoded request must fit the
// endpoint's eager limit or the send is refused outright.
func (t *UCRTransport) mgetBatch(keys []string) int {
	size := 8 + 2 + 2 // reply counter, slot, key count
	for n, k := range keys {
		if size += 2 + len(k); n == maxMGetKeys || (size > t.ep.MaxEager() && n > 0) {
			return n
		}
	}
	return len(keys)
}

// GetMulti implements Transport with mget active messages: each reply
// carries all metadata in its header and the values concatenated as the
// AM data (one transaction if small, one RDMA read if large).
func (t *UCRTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	return t.GetMultiInto(clk, keys, nil)
}

// GetMultiInto is GetMulti with a caller-lent buffer for the
// concatenated value block: when it fits in cap(buf), the returned map
// values are subslices of buf — zero copies. The caller must consume
// them before reusing buf. The keys go out as mget AMs of mgetBatch keys
// each; the lent buffer is consumed front to back across them.
func (t *UCRTransport) GetMultiInto(clk *simnet.VClock, keys []string, buf []byte) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	for len(keys) > 0 {
		n := t.mgetBatch(keys)
		op, err := t.read(clk, "", keys[:n], buf)
		if err != nil {
			return nil, err
		}
		err = t.mgetResult(op, out)
		if !op.pooled {
			buf = buf[len(op.data):cap(buf)]
		}
		t.finishOp(op)
		if err != nil {
			return nil, err
		}
		keys = keys[n:]
	}
	return out, nil
}

// Delete implements Transport.
func (t *UCRTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	op := t.deleteOp(clk, key)
	if err := t.do(clk, op); err != nil {
		return false, err
	}
	defer t.finishOp(op)
	return op.deleted(), nil
}

// IncrDecr implements Transport.
func (t *UCRTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	op := t.numOp(clk, key, delta, incr)
	if err := t.do(clk, op); err != nil {
		return 0, false, false, err
	}
	defer t.finishOp(op)
	return op.number()
}

// Close implements Transport.
func (t *UCRTransport) Close() {
	for tag, op := range t.slots {
		delete(t.slots, tag)
		t.rt.FreeCounter(op.ctr)
	}
	if t.wr.win != nil {
		t.wr.free = nil // no slot is advertised from here on
		t.wr.win.Close()
	}
	t.ep.Close()
}
