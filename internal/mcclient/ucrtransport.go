package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// UCRTransport speaks the paper's active-message protocol (§V): every
// request is AM 1 carrying the client's counter C; the client then
// blocks on C with a timeout while driving its progress context, and
// the server's AM 2 reply targets C. Get replies land in a buffer from
// the progress context's pool, sized when the header handler learns the
// item length (§V-C).
//
// Every request gets a fresh counter, whose id doubles as the request
// tag: the reply AM targets that counter, and the counter carries its
// op, so a reply handler finds the request with the one lookup the
// runtime makes for the counter anyway. With one request in flight
// this changes nothing; with a pipelined window it lets any number of
// replies land out of order, and a late duplicate from a timed-out
// attempt (its counter since freed, its id retired) is dropped instead
// of clobbering the op of whatever request happens to be waiting.
//
// One op lifecycle serves every caller: a builder (setOp, readOp,
// deleteOp, numOp) opens the tagged op and encodes its request, the one
// driver — ucrPipeline's push, then waitFor — sends it and waits for the
// reply, a result reader decodes what landed, and finishOp retires it.
// A blocking call, a concentrated Session's included, runs on blk, a
// window of one that reuses one future; SetAll/DeleteAll start on every
// transport's blk before waiting on any; Pipeline opens wider windows.
// Every exported call but the dial-time Arm and EnableUD takes the
// deployment once (simnet.Executor.Enter) and holds it throughout.
type UCRTransport struct {
	name    string
	ex      *simnet.Executor // the deployment every exported call takes
	rt      *ucr.Runtime
	ctx     *ucr.Context
	ep      *ucr.Endpoint
	timeout simnet.Duration

	// UD small-get mode (§VII): an optional unreliable endpoint to the
	// same server; readOp says which reads ride it. A lost datagram is
	// recovered by the same AM-level retransmission budget the RC path
	// uses for lossy fabrics. Mutating ops never use it.
	udEP *ucr.Endpoint

	freeOps []*amOp
	blk     ucrPipeline // the window of one every blocking call runs on
	one     future      // blk's future, reused from call to call

	os    osState // one-sided GET fast path (see onesided.go)
	wr    wrState // write-based reply arena (see wrreply.go)
	paths PathStats
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
	pooled bool   // data came from the context's pool: recycle on finish
	data   []byte // landed value bytes
	// landing counts reply landings handed out whose completion has not
	// run: a rendezvous read still writing into op.data.
	landing int
	wrSlot  int32 // write-reply slot index + 1; 0 = none
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
// installs the reply handlers on the client runtime (idempotent). A dial
// is setup: its caller holds the deployment, or no other goroutine
// drives it yet; so are Arm and EnableUD, which complete one.
func DialUCR(rt *ucr.Runtime, ctx *ucr.Context, to *simnet.Node, service string, behaviors Behaviors, clk *simnet.VClock) (*UCRTransport, error) {
	rt.ShareHandlers(clientHandlers) // the AM 2 reply handlers; repeat calls are no-ops
	ep, err := rt.Dial(ctx, to, service, ucr.Reliable, clk, 0)
	if err != nil {
		return nil, err
	}
	t := &UCRTransport{
		name:    to.Name() + "/" + service,
		ex:      rt.HCA().Fabric().Executor(),
		rt:      rt,
		ctx:     ctx,
		ep:      ep,
		timeout: behaviors.OpTimeout,
	}
	t.blk = ucrPipeline{t: t, window: 1, one: &t.one}
	ep.UserData = t
	return t, nil
}

// opFor is the reply handlers' one tag→op lookup: the transport that
// owns ep, and the in-flight op whose counter tag names — nil for a
// retired tag (a late duplicate) or an endpoint that is not a
// transport's.
func opFor(ep *ucr.Endpoint, tag ucr.CounterID) (*UCRTransport, *amOp) {
	t, ok := ep.UserData.(*UCRTransport)
	if !ok {
		return nil, nil
	}
	var op *amOp
	if c := t.rt.Counter(tag); c != nil {
		op, _ = c.UserData.(*amOp)
	}
	return t, op
}

// clientHandlers is the one reply-handler table every client runtime
// shares: a handler finds its transport through the endpoint and its op
// through the tag, so it captures nothing per client.
var clientHandlers = newClientHandlers()

func newClientHandlers() *ucr.Handlers {
	t := new(ucr.Handlers)
	// A reply either carries no data block or lands its value where
	// landingBuf says — §V-C: the client learns the item size in the
	// header handler and picks the destination there.
	noData := func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil }
	landing := func(_ *simnet.VClock, ep *ucr.Endpoint, _ []byte, dataLen int, tag ucr.CounterID) []byte {
		t, op := opFor(ep, tag)
		if t == nil {
			return nil
		}
		return t.landingBuf(op, dataLen)
	}
	// on registers a reply AM whose completion runs fn on the tagged op;
	// a reply whose tag was retired is suppressed.
	on := func(id uint8, header ucr.HeaderHandler, fn func(t *UCRTransport, op *amOp, hdr, data []byte)) {
		t.Register(id, ucr.Handler{Header: header,
			Completion: func(_ *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, tag ucr.CounterID) {
				t, op := opFor(ep, tag)
				if op != nil && len(data) > 0 {
					op.landing-- // the landing landingBuf handed it is in
				} else if op == nil && t != nil && id == memcached.AMGetReply {
					// The mutation build accepts a late duplicate into a live
					// op instead — the bug class the tags exist to prevent.
					// The whole completion event lands on the victim: payload
					// AND counter fire, so the victim's waiter returns this
					// stale reply as its own.
					if op = t.dupVictim(ep); op != nil {
						op.ctr.MutBump()
					}
				}
				switch {
				case op != nil:
					fn(t, op, hdr, data)
				case t != nil && t.dupVictim(t.udEP) == nil:
					t.ctx.Recycle(data) // a late duplicate's own landing (landingBuf)
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
	return t
}

// landingBuf picks where a reply value lands: the tagged request's lent
// buffer when it fits, a pooled buffer otherwise — or, when the tag
// names no op (nil: a late duplicate from a timed-out attempt), a pooled
// buffer of its own, which the reply's completion hands back without
// touching any live request.
func (t *UCRTransport) landingBuf(op *amOp, dataLen int) []byte {
	switch {
	case dataLen == 0:
		return nil
	case op != nil:
		op.landing++
	case t.dupVictim(t.udEP) != nil: // mutation build: clobber a live op
		op = t.one.op
	default:
		return t.ctx.Buf(dataLen)
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
		op.data = t.ctx.Buf(n)
	}
}

// dupVictim is the mut_ud_dup_ack seeded bug: instead of suppressing a
// reply whose tag names no op (a late duplicate from a retransmitted UD
// request whose original answer also arrived), it "accepts it twice" by
// routing it into the live op — exactly the clobbering the tagged
// counters prevent. UD rides blocking calls only, so that op is the
// blocking window's, unless it has been retired. Always nil in a normal
// build; only meaningful when a UD endpoint exists (ep non-nil).
func (t *UCRTransport) dupVictim(ep *ucr.Endpoint) *amOp {
	if !memcached.MutUDDupAck || ep == nil || t.one.op == nil || t.one.op.ctr == nil {
		return nil
	}
	return t.one.op
}

// newOp opens a tagged request around a fresh counter that carries it,
// bound to the RC endpoint. The runtime never reissues a counter id, so
// a tag uniquely names one request.
func (t *UCRTransport) newOp(clk *simnet.VClock) *amOp {
	var op *amOp
	if k := len(t.freeOps); k > 0 {
		op = t.freeOps[k-1]
		t.freeOps = t.freeOps[:k-1]
	} else {
		op = &amOp{}
	}
	op.ctr = t.rt.NewCounter()
	op.ctr.UserData = op
	op.tag = op.ctr.ID()
	op.ep = t.ep
	op.clk = clk
	return op
}

// finishOp retires a request: the counter is freed, so its tag names no
// op any more (late duplicates land in a pooled buffer of their own) and
// bumps nothing, and the pooled landing buffer is recycled. A request
// that gave up while a reply was still landing in its buffer (a
// rendezvous read outliving the last attempt) is not retired: it stays
// on its counter, where that completion finds it, and goes to the
// collector with its landing. A write-reply slot is released
// unconditionally — RC FIFO on the transport's one QP orders any late
// write to it before a later request's write, so recycling can never
// expose stale data.
func (t *UCRTransport) finishOp(op *amOp) {
	if op.landing > 0 {
		return
	}
	t.rt.FreeCounter(op.ctr)
	if op.pooled {
		t.ctx.Recycle(op.data)
	}
	if op.wrSlot != 0 {
		t.wrRelease(op.wrSlot - 1)
	}
	op.reset()
	t.freeOps = append(t.freeOps, op)
}

// reset clears what a request set — its build, its landing and its
// reply — field by field, keeping hdr's capacity: the arm reply, the
// op's largest field, is written only by an AMArm exchange. newOp sets
// tag, ep and clk afresh.
func (op *amOp) reset() {
	if op.msg == memcached.AMArm {
		op.arm = memcached.ArmReply{}
	}
	op.ctr, op.msg, op.hdr, op.val = nil, 0, op.hdr[:0], nil
	op.lend, op.pooled, op.data, op.landing = nil, false, nil, 0
	op.wrSlot, op.wrPend, op.wrOff, op.wrLen, op.path = 0, false, 0, 0, PathAM
	op.status, op.get, op.mget, op.num = memcached.StatusReply{}, memcached.GetReply{}, memcached.MGetReply{}, memcached.NumReply{}
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
// client specified timeout"): one start and one wait on the transport's
// window of one. On error the op is retired; on success the caller
// reads the slot and retires it.
func (t *UCRTransport) do(clk *simnet.VClock, op *amOp) error {
	return t.blk.start(clk, futOp, op).wait(clk)
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

// amRetries is how many times waitDone re-sends a timed-out request
// before it declares the endpoint dead (§IV-A corrective action).
const amRetries = 3

// waitDone is the one wait for a sent op, whose request went out when
// its window admitted it. It drives progress, draining the CQ in batches
// of at most batch. A timed-out request is re-sent up to amRetries
// times — the per-attempt wait is the op timeout split across attempts,
// so the overall deadline holds; on the UD endpoint, where datagram loss
// is silent, that is the client-side retransmission (the tag routes the
// reply; a late duplicate lands apart and is dropped). Only after the
// budget is exhausted is the endpoint marked failed (§IV-A: the client
// decides the server has gone down, isolating this endpoint without
// touching the runtime). The caller owns retiring the op.
func (t *UCRTransport) waitDone(clk *simnet.VClock, op *amOp, batch int) error {
	if op.ctr.Value() >= 1 {
		return nil
	}
	if op.ep.Failed() {
		return ErrServerDown
	}
	attempts := 1 + amRetries
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

// Set implements Transport: StartSet on the transport's window, then Wait.
func (t *UCRTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	return t.blk.startSet(clk, key, flags, exptime, value).result(clk)
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
	if v, fl, cas, ok := t.oneSidedGet(clk, key, lend); ok {
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
	t.ex.Enter()
	defer t.ex.Exit()
	return t.get(clk, key, nil, true)
}

// GetInto is Get with a caller-lent value buffer: when the value fits
// in cap(buf), the reply header handler lands it directly there and the
// returned slice aliases buf — no allocation and no copy on the hot
// path. A value too large for buf is returned in a fresh allocation.
func (t *UCRTransport) GetInto(clk *simnet.VClock, key string, buf []byte) ([]byte, uint32, uint64, bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
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
// AM data (one transaction if small, one RDMA read if large). The keys
// go out as mget AMs of mgetBatch keys each.
func (t *UCRTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	out := make(map[string][]byte, len(keys))
	for len(keys) > 0 {
		n := t.mgetBatch(keys)
		op, err := t.read(clk, "", keys[:n], nil)
		if err != nil {
			return nil, err
		}
		err = t.mgetResult(op, out)
		t.finishOp(op)
		if err != nil {
			return nil, err
		}
		keys = keys[n:]
	}
	return out, nil
}

// Delete implements Transport: StartDelete on the transport's window,
// then Wait.
func (t *UCRTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	return t.blk.startDelete(clk, key).result(clk)
}

// IncrDecr implements Transport.
func (t *UCRTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	op := t.numOp(clk, key, delta, incr)
	if err := t.do(clk, op); err != nil {
		return 0, false, false, err
	}
	defer t.finishOp(op)
	return op.number()
}

// Close implements Transport.
func (t *UCRTransport) Close() {
	t.ex.Enter()
	defer t.ex.Exit()
	if t.wr.win != nil {
		t.wr.free = nil // no slot is advertised from here on
		t.wr.win.Close()
	}
	t.ep.Close()
}
