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
// wire while earlier ones are still out, and a wait for one reply
// drains whatever other replies are already visible at the coalesced
// CQ cost. Tagged reply slots (see UCRTransport) route each reply to
// its own request regardless of arrival order.
//
// A Pipeline borrows its transport's connection: while a window is
// outstanding, do not interleave blocking Transport calls on the same
// transport. Futures may be waited in any order (or dropped — Wait
// settles everything).

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
	// Window reports the configured depth.
	Window() int
}

// future is the one allocation a pipelined request makes: the result
// its caller waits on and the window entry its pipeline tracks, in one
// struct. GetFuture, SetFuture and BoolFuture are views of it that
// differ only in what Wait returns. Futures are not recycled, so Wait
// may be called any number of times.
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
)

// futureWaiter is the pipeline side of Wait: drive the connection until
// f is done.
type futureWaiter interface {
	waitFor(clk *simnet.VClock, f *future)
}

func (f *future) wait(clk *simnet.VClock) {
	if !f.done {
		f.pipe.waitFor(clk, f)
	}
}

// GetFuture is the pending result of StartGet.
type GetFuture future

// Wait settles the future (driving the pipeline as needed) and returns
// the get outcome, mirroring Transport.Get.
func (f *GetFuture) Wait(clk *simnet.VClock) ([]byte, uint32, uint64, bool, error) {
	(*future)(f).wait(clk)
	return f.value, f.flags, f.cas, f.hit, f.err
}

// SetFuture is the pending result of StartSet.
type SetFuture future

// Wait settles the future and returns the store outcome.
func (f *SetFuture) Wait(clk *simnet.VClock) (memcached.StoreResult, error) {
	(*future)(f).wait(clk)
	return f.res, f.err
}

// BoolFuture is the pending result of StartDelete.
type BoolFuture future

// Wait settles the future and returns the outcome.
func (f *BoolFuture) Wait(clk *simnet.VClock) (bool, error) {
	(*future)(f).wait(clk)
	return f.ok, f.err
}

// settleUCR records a settled UCR op's outcome in the future. A GET
// whose value still sits in its write-reply slot is not read out yet:
// deferred reports it, and the pipeline lands it just before its next
// blocking CQ wait, so the copy overlaps the wire instead of delaying
// the next request.
func (f *future) settleUCR(t *UCRTransport, err error) (deferred bool) {
	switch {
	case err != nil:
		f.err, f.done = err, true
	case f.kind == futSet:
		f.res, f.done = f.op.stored(), true
	case f.kind == futDelete:
		f.ok, f.done = f.op.deleted(), true
	case f.op.wrPend:
		f.landing = true
	default:
		f.landUCR(t)
	}
	return f.landing
}

// landUCR reads a settled GET out of its op.
func (f *future) landUCR(t *UCRTransport) {
	f.value, f.flags, f.cas, f.hit = t.getResult(f.op, false)
	f.landing, f.done = false, true
}

// Pipeline implements Pipeliner: the returned pipeline posts each AM
// request as the window admits it and waits with half-window CQ drains
// (WaitCounterBatch).
func (t *UCRTransport) Pipeline(window int) Pipeline {
	if window < 1 {
		window = 1
	}
	return &ucrPipeline{t: t, window: window}
}

type ucrPipeline struct {
	t      *UCRTransport
	window int
	q      []*future // outstanding, issue order
	landq  []*future // settled entries with a deferred write-reply landing
	err    error     // first transport-level error (sticky)
}

func (p *ucrPipeline) Window() int { return p.window }

// push admits e into the window — completing the oldest request when
// the window is full — and posts it. A wait harvests half a window at
// most (halfWindow is waitFor's sweep bound): a full-window sweep
// re-synchronizes the pipe whenever landing a reply takes as long as
// the gap to the next arrival (4 KB: ≈ 1.0 vµs copy, 1.06 vµs gap) —
// every reply is then "already visible", one wait takes all of them
// before the caller may issue, and the wire idles for a window's worth
// of issue time.
func (p *ucrPipeline) push(clk *simnet.VClock, e *future) {
	for len(p.q) >= p.window {
		p.waitFor(clk, p.q[0])
	}
	p.q = append(p.q, e)
	if e.op.sendAM() != nil {
		e.failed = true
		p.fail(ErrServerDown)
	}
}

func (p *ucrPipeline) halfWindow() int { return (p.window + 1) / 2 }

// Flush has nothing to push: every admitted request is already posted.
func (p *ucrPipeline) Flush(*simnet.VClock) error { return p.err }

func (p *ucrPipeline) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// drainLandings materializes every deferred write-reply copy-out. Run
// just before a blocking CQ wait, the copies are charged while the
// awaited reply is still on the wire; the forward-only sync to its
// arrival then swallows them (see wrMaterialize).
func (p *ucrPipeline) drainLandings() {
	for i, e := range p.landq {
		p.landNow(e)
		p.landq[i] = nil
	}
	p.landq = p.landq[:0]
}

// landNow runs e's deferred landing, if still pending, and retires the
// op (which frees its reply slot).
func (p *ucrPipeline) landNow(e *future) {
	if e.landing {
		e.landUCR(p.t)
		p.t.finishOp(e.op)
	}
}

// waitFor settles one outstanding entry (in any order — tagged slots
// let replies land while a different tag is being waited on).
func (p *ucrPipeline) waitFor(clk *simnet.VClock, e *future) {
	if e.landing { // settled already; only the copy-out is outstanding
		p.landNow(e)
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
	p.remove(e)
	if e.settleUCR(p.t, err) {
		// Deferred write-reply landing: the op keeps its reply slot until
		// the copy-out materializes at the next blocking wait (or on the
		// future's own Wait, whichever comes first).
		p.landq = append(p.landq, e)
	} else {
		p.t.finishOp(e.op)
	}
}

func (p *ucrPipeline) remove(e *future) {
	if i := slices.Index(p.q, e); i >= 0 {
		p.q = slices.Delete(p.q, i, i+1) // zeroes the vacated tail slot
	}
}

// Wait settles everything outstanding.
func (p *ucrPipeline) Wait(clk *simnet.VClock) error {
	for len(p.q) > 0 {
		p.waitFor(clk, p.q[0])
	}
	p.drainLandings()
	return p.err
}

func (p *ucrPipeline) StartGet(clk *simnet.VClock, key string) *GetFuture {
	return p.startGet(clk, key, nil)
}

func (p *ucrPipeline) StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture {
	return p.startGet(clk, key, buf)
}

func (p *ucrPipeline) startGet(clk *simnet.VClock, key string, lend []byte) *GetFuture {
	// No UD rung for a window: a punted reply would need a blocking
	// re-issue in the middle of it.
	f := &future{pipe: p, kind: futGet, op: p.t.readOp(clk, key, nil, lend, false)}
	p.push(clk, f)
	return (*GetFuture)(f)
}

func (p *ucrPipeline) StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	f := &future{pipe: p, kind: futSet, op: p.t.setOp(clk, key, flags, exptime, value)}
	p.push(clk, f)
	return (*SetFuture)(f)
}

func (p *ucrPipeline) StartDelete(clk *simnet.VClock, key string) *BoolFuture {
	f := &future{pipe: p, kind: futDelete, op: p.t.deleteOp(clk, key)}
	p.push(clk, f)
	return (*BoolFuture)(f)
}

// interface conformance
var (
	_ Pipeliner = (*UCRTransport)(nil)
	_ Pipeline  = (*ucrPipeline)(nil)
)
