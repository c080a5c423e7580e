package mcclient

import (
	"slices"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Pipelined transports: issue and completion split apart so one
// connection can keep a window of N requests in flight. The blocking
// Transport methods pay every per-op fixed cost (CQ wakeup, full round
// trip) serially; a Pipeline overlaps them — a request goes onto the
// wire while earlier ones are still out, and replies already visible are
// drained at the coalesced CQ cost. Tagged reply counters (see
// UCRTransport) route each reply to its own request regardless of
// arrival order.
//
// A blocking Transport call is a window of one: Start* on a window-1
// pipeline the transport owns, then Wait (§V-B: a non-blocking send,
// then a wait on its counter), so push/waitFor here is the one place a
// request is posted and waited for. A Pipeline borrows its transport's
// connection: while a window is outstanding, do not interleave blocking
// Transport calls on the same transport. Futures may be waited in any
// order (or dropped — Wait settles everything), each at most once: a
// future's Wait spends it (see future).
//
// Every Start, Flush and Wait — a pipeline's or a future's — is an entry
// point of the deployment: it takes the transport's executor once
// (simnet.Executor.Enter) and holds it through the call's waits.

// Pipeliner is implemented by transports that support windowed
// pipelining.
type Pipeliner interface {
	// Pipeline opens a pipelined issue path with a window of at most
	// `window` in-flight requests (minimum 1).
	Pipeline(window int) Pipeline
}

// Pipeline is the windowed asynchronous issue API. Start* calls return
// immediately with a Future; once the window is full the oldest request
// is completed to make room. The UCR pipeline posts a request when it
// is admitted; the sockets pipeline queues a window of them for one
// stream write, which Flush forces early. Wait flushes and settles
// every outstanding future.
type Pipeline interface {
	StartGet(clk *simnet.VClock, key string) *GetFuture
	// StartGetInto is StartGet with a caller-lent value buffer (see
	// UCRTransport.GetInto); the future's value aliases buf when it fit.
	StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture
	// StartSet issues a set; value must stay untouched until the future
	// settles (large values are exposed for rendezvous reads in place).
	StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture
	StartDelete(clk *simnet.VClock, key string) *BoolFuture
	// Flush writes out whatever the pipeline has queued (UCR queues
	// nothing) and returns the pipeline's sticky error.
	Flush(clk *simnet.VClock) error
	// Wait flushes and settles all outstanding futures, returning the
	// first transport-level error (per-op outcomes live on the futures).
	Wait(clk *simnet.VClock) error
}

// future is the result a pipelined request's caller waits on and the
// window entry its pipeline tracks, in one struct. GetFuture, SetFuture
// and BoolFuture are views of it that differ only in what Wait returns.
// Wait spends its future: it copies the result out, zeroes the future
// and hands it to the window that issued it, which keeps up to `window`
// spares for its next Start — except a transport's own `one`, which its
// blocking calls and SetAll/DeleteAll reuse. Do not touch a future after
// its Wait: once a later Start reissues it, a second Wait reads that
// op's result and spends a future still in flight, corrupting the
// window.
type future struct {
	pipe futureWaiter // the pipeline that issued it
	kind futureKind

	// Window entry.
	sent    bool   // sockets: written to the stream (UCR posts at admission)
	failed  bool   // the send never reached the wire: settles ErrServerDown
	landing bool   // UCR: settled, but the value still sits in the op's write-reply slot
	op      *amOp  // UCR: the tagged request
	key     string // sockets: the requested key, checked against the VALUE line
	lend    []byte // sockets: the caller-lent value buffer

	// Result; done says it is readable.
	done  bool
	err   error
	value []byte // get
	flags uint32
	cas   uint64
	hit   bool
	res   memcached.StoreResult // set
	ok    bool                  // delete
}

// futureKind says which reply settles a future.
type futureKind uint8

const (
	futGet futureKind = iota
	futSet
	futDelete
	futOp // UCR blocking call: settled, the op is left to the caller's result reader
)

// futureWaiter is the pipeline side of Wait: drive the connection until
// f is done, holding the deployment owner() names, then take f back.
type futureWaiter interface {
	waitFor(clk *simnet.VClock, f *future)
	owner() *simnet.Executor
	spend(f *future)
}

// wait drives the pipeline until f is done: a GET settled with its
// value still in a write-reply slot takes a second round, its landing.
func (f *future) wait(clk *simnet.VClock) error {
	for !f.done {
		f.pipe.waitFor(clk, f)
	}
	return f.err
}

// spares holds a window's spent futures for its next starts.
type spares []*future

// take returns a spare future, or a new one when none is left.
func (s *spares) take() *future {
	n := len(*s)
	if n == 0 {
		return new(future)
	}
	f := (*s)[n-1]
	*s = (*s)[:n-1]
	return f
}

// keep holds f for a later take, unless limit spares are held already.
func (s *spares) keep(f *future, limit int) {
	if len(*s) < limit {
		*s = append(*s, f)
	}
}

// GetFuture is the pending result of StartGet.
type GetFuture future

// Wait settles the future (driving the pipeline as needed), spends it
// and returns the get outcome, mirroring Transport.Get.
func (f *GetFuture) Wait(clk *simnet.VClock) ([]byte, uint32, uint64, bool, error) {
	p := f.pipe
	ex := p.owner()
	ex.Enter()
	defer ex.Exit()
	defer p.spend((*future)(f)) // after the result is copied out, before Exit
	return f.result(clk)
}

// result is Wait for a caller that holds the deployment.
func (f *GetFuture) result(clk *simnet.VClock) ([]byte, uint32, uint64, bool, error) {
	(*future)(f).wait(clk)
	return f.value, f.flags, f.cas, f.hit, f.err
}

// SetFuture is the pending result of StartSet.
type SetFuture future

// Wait settles the future, spends it and returns the store outcome.
func (f *SetFuture) Wait(clk *simnet.VClock) (memcached.StoreResult, error) {
	p := f.pipe
	ex := p.owner()
	ex.Enter()
	defer ex.Exit()
	defer p.spend((*future)(f))
	return f.result(clk)
}

// result is Wait for a caller that holds the deployment.
func (f *SetFuture) result(clk *simnet.VClock) (memcached.StoreResult, error) {
	(*future)(f).wait(clk)
	return f.res, f.err
}

// BoolFuture is the pending result of StartDelete.
type BoolFuture future

// Wait settles the future, spends it and returns the outcome.
func (f *BoolFuture) Wait(clk *simnet.VClock) (bool, error) {
	p := f.pipe
	ex := p.owner()
	ex.Enter()
	defer ex.Exit()
	defer p.spend((*future)(f))
	return f.result(clk)
}

// result is Wait for a caller that holds the deployment.
func (f *BoolFuture) result(clk *simnet.VClock) (bool, error) {
	(*future)(f).wait(clk)
	return f.ok, f.err
}

// settleUCR records a settled UCR op's outcome in the future. A GET
// whose value still sits in its write-reply slot is not read out yet
// (landing): the pipeline lands it just after its next post or before
// its next blocking CQ wait, so the copy overlaps the wire instead of
// delaying the next request.
func (f *future) settleUCR(t *UCRTransport, err error) {
	switch {
	case err != nil:
		f.err, f.done = err, true
	case f.kind == futOp:
		f.done = true
	case f.kind == futSet:
		f.res, f.done = f.op.stored(), true
	case f.kind == futDelete:
		f.ok, f.done = f.op.deleted(), true
	case f.op.wrPend:
		f.landing = true
	default:
		f.landUCR(t)
	}
}

// landUCR reads a settled GET out of its op.
func (f *future) landUCR(t *UCRTransport) {
	f.value, f.flags, f.cas, f.hit = t.getResult(f.op, false)
	f.landing, f.done = false, true
}

// Pipeline implements Pipeliner: the returned pipeline posts each AM
// request as the window admits it and drains the CQ by its completion
// stamps (push).
func (t *UCRTransport) Pipeline(window int) Pipeline {
	if window < 1 {
		window = 1
	}
	return &ucrPipeline{t: t, window: window}
}

type ucrPipeline struct {
	t      *UCRTransport
	window int
	one    *future   // the transport's own window: the future every call reuses
	q      []*future // outstanding, issue order
	landq  []*future // settled entries with a deferred write-reply landing
	spare  spares    // spent futures, at most window
	err    error     // first transport-level error (sticky)
}

// start admits op under a future: a spare or fresh one in a Pipeline()
// window; in the transport's own, its one future, and a fresh window —
// a blocking call inherits no sticky error from the call before.
func (p *ucrPipeline) start(clk *simnet.VClock, kind futureKind, op *amOp) *future {
	f := p.one
	if f == nil {
		f = p.spare.take()
	} else {
		p.err = nil
	}
	*f = future{pipe: p, kind: kind, op: op}
	p.push(clk, f)
	return f
}

// push admits e into the window — completing the oldest request when
// the window is full — and posts it: post first, then progress. In a
// window that sweeps at all (halfWindow > 1), every post is followed by
// the deferred write-reply copy-outs and a harvest of at most one reply
// already visible, at the coalesced cost — one in, one out — so the
// copy of a landed reply overlaps the request just posted. A wait
// sweeps only when its own harvest found the CQ ahead of it
// (ucr.Context.WaitCounterBatch); a wait that parked for its reply
// returns at once, since the wire, not the client, was the bottleneck.
func (p *ucrPipeline) push(clk *simnet.VClock, e *future) {
	for len(p.q) >= p.window {
		p.waitFor(clk, p.q[0])
	}
	p.q = append(p.q, e)
	if e.op.sendAM() != nil {
		e.failed = true
		p.fail(ErrServerDown)
		return
	}
	if p.halfWindow() > 1 {
		p.drainLandings()
		p.t.ctx.Sweep(clk, 1)
	}
}

// halfWindow is a wait's sweep bound when it finds its CQ ahead of it.
// A full-window sweep re-synchronizes the pipe whenever landing a reply
// takes as long as the gap to the next arrival (4 KB: ≈ 1.0 vµs copy,
// 1.06 vµs gap) — every reply is then "already visible", one wait takes
// all of them before the caller may issue, and the wire idles for a
// window's worth of issue time.
func (p *ucrPipeline) halfWindow() int { return (p.window + 1) / 2 }

func (p *ucrPipeline) owner() *simnet.Executor { return p.t.ex }

// Flush has nothing to push: every admitted request is already posted.
func (p *ucrPipeline) Flush(*simnet.VClock) error {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	return p.err
}

func (p *ucrPipeline) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// spend takes back a future whose Wait has copied its result out (a
// settled future is off q and landq): zeroed, and kept as a spare, up to
// window of them, unless it is the transport's own.
func (p *ucrPipeline) spend(f *future) {
	if f == p.one {
		return
	}
	*f = future{}
	p.spare.keep(f, p.window)
}

// drainLandings materializes every deferred write-reply copy-out. Run
// just after a post or before a blocking CQ wait, the copies are charged
// while a reply is still on the wire; the forward-only sync to its
// arrival then swallows them (see wrMaterialize).
func (p *ucrPipeline) drainLandings() {
	for i, e := range p.landq {
		p.landNow(e)
		p.landq[i] = nil
	}
	p.landq = p.landq[:0]
}

// landNow runs e's deferred landing and retires the op (which frees its
// reply slot).
func (p *ucrPipeline) landNow(e *future) {
	e.landUCR(p.t)
	p.t.finishOp(e.op)
}

// waitFor settles one outstanding entry (in any order — tagged counters
// let replies land while a different tag is being waited on).
func (p *ucrPipeline) waitFor(clk *simnet.VClock, e *future) {
	if e.landing { // settled already; only the copy-out is outstanding
		p.landNow(e)
		p.landq = unlist(p.landq, e)
		return
	}
	var err error
	if e.failed {
		err = ErrServerDown
	} else {
		p.drainLandings()
		err = p.t.waitDone(clk, e.op, p.halfWindow())
	}
	if err != nil {
		p.fail(err)
	}
	p.q = unlist(p.q, e)
	e.settleUCR(p.t, err)
	switch {
	case e.landing:
		// Deferred write-reply landing: the op keeps its reply slot until
		// the copy-out materializes at the next post or blocking wait (or
		// on the future's own Wait, whichever comes first).
		p.landq = append(p.landq, e)
	case e.kind != futOp || err != nil:
		p.t.finishOp(e.op)
	}
}

// unlist removes e from list, keeping the order of the rest.
func unlist(list []*future, e *future) []*future {
	if i := slices.Index(list, e); i >= 0 {
		return slices.Delete(list, i, i+1) // zeroes the vacated tail slot
	}
	return list
}

// Wait settles everything outstanding.
func (p *ucrPipeline) Wait(clk *simnet.VClock) error {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	for len(p.q) > 0 {
		p.waitFor(clk, p.q[0])
	}
	p.drainLandings()
	return p.err
}

func (p *ucrPipeline) StartGet(clk *simnet.VClock, key string) *GetFuture {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	return p.startGet(clk, key, nil)
}

func (p *ucrPipeline) StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	return p.startGet(clk, key, buf)
}

func (p *ucrPipeline) startGet(clk *simnet.VClock, key string, lend []byte) *GetFuture {
	// No UD rung for a window: a punted reply would need a blocking
	// re-issue in the middle of it.
	return (*GetFuture)(p.start(clk, futGet, p.t.readOp(clk, key, nil, lend, false)))
}

func (p *ucrPipeline) StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	return p.startSet(clk, key, flags, exptime, value)
}

func (p *ucrPipeline) startSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	return (*SetFuture)(p.start(clk, futSet, p.t.setOp(clk, key, flags, exptime, value)))
}

func (p *ucrPipeline) StartDelete(clk *simnet.VClock, key string) *BoolFuture {
	p.t.ex.Enter()
	defer p.t.ex.Exit()
	return p.startDelete(clk, key)
}

func (p *ucrPipeline) startDelete(clk *simnet.VClock, key string) *BoolFuture {
	return (*BoolFuture)(p.start(clk, futDelete, p.t.deleteOp(clk, key)))
}

// interface conformance
var (
	_ Pipeliner = (*UCRTransport)(nil)
	_ Pipeline  = (*ucrPipeline)(nil)
)
