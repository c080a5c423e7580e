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
// One engine serves both transports: a window admits, posts and settles
// requests over the wire its transport implements (post, settle, drain;
// MPICH2's progress engine over its channel interface). A blocking
// Transport call is a window of one: a start on the window the transport
// owns, then Wait (§V-B: a non-blocking send, then a wait on its
// counter), so window.push and the wire's settle are the one place a
// request is posted and waited for. A Pipeline borrows its transport's
// connection: while a window is outstanding, do not interleave blocking
// Transport calls on the same transport. Futures may be waited in any
// order (or dropped — Wait settles everything), each at most once: a
// future's Wait spends it (see future).
//
// Every Start, Flush and Wait — a pipeline's or a future's — is an entry
// point of the deployment: it takes the transport's executor once
// (simnet.Executor.Enter) and holds it through the call's waits.

// Pipeliner is implemented by transports that can pipeline requests
// over a window.
type Pipeliner interface {
	// Pipeline opens a pipelined issue path with a window of at most
	// `window` in-flight requests (minimum 1).
	Pipeline(window int) Pipeline
}

// Pipeline is the asynchronous issue API of a window. Start* calls return
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
	// Flush does the work the pipeline deferred — sockets write the
	// queued requests, UCR copies out settled write-reply landings — and
	// returns the pipeline's sticky error.
	Flush(clk *simnet.VClock) error
	// Wait flushes and settles all outstanding futures, returning the
	// first transport-level error (per-op outcomes live on the futures).
	Wait(clk *simnet.VClock) error
}

// future is the result a pipelined request's caller waits on and the
// window entry its pipeline tracks, in one struct. GetFuture, SetFuture
// and BoolFuture are views of it that differ only in what Wait returns.
// Wait spends its future: it copies the result out, zeroes the future
// and hands it to the window that issued it, which keeps up to `bound`
// spares for its next Start — except a transport's own `one`, which its
// blocking calls and SetAll/DeleteAll reuse. Do not touch a future after
// its Wait: once a later Start reissues it, a second Wait reads that
// op's result and spends a future still in flight, corrupting the
// window.
type future struct {
	pipe *window // the window that issued it
	kind futureKind

	// Request, as its Start recorded it; the wire encodes it when it
	// posts. A set's value and flags ride in the result fields a get's
	// reply lands in.
	key     string
	lend    []byte // get: the caller-lent value buffer
	exptime int64  // set

	// Window entry.
	failed  bool  // UCR: the send never reached the wire: settles ErrServerDown
	landing bool  // UCR: settled, but the value still sits in the op's write-reply slot
	op      *amOp // UCR: the tagged request

	// Result; done says it is readable.
	done  bool
	err   error
	value []byte // get; set: the value to store
	flags uint32 // get; set: the flags to store
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

// wait drives the window until f is done: a GET settled with its value
// still in a write-reply slot takes a second round, its landing.
func (f *future) wait(clk *simnet.VClock) error {
	for !f.done {
		f.pipe.wire.settle(clk, f.pipe, f)
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
	w := f.pipe
	w.ex.Enter()
	defer w.ex.Exit()
	defer w.spend((*future)(f)) // after the result is copied out, before Exit
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
	w := f.pipe
	w.ex.Enter()
	defer w.ex.Exit()
	defer w.spend((*future)(f))
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
	w := f.pipe
	w.ex.Enter()
	defer w.ex.Exit()
	defer w.spend((*future)(f))
	return f.result(clk)
}

// result is Wait for a caller that holds the deployment.
func (f *BoolFuture) result(clk *simnet.VClock) (bool, error) {
	(*future)(f).wait(clk)
	return f.ok, f.err
}

// wire is a transport under a window: the one channel the engine drives.
// The window admits and orders; the wire moves bytes and settles.
type wire interface {
	// post puts f's request on the wire, or queues it there, once the
	// window has admitted it (f is the last entry of w.q).
	post(clk *simnet.VClock, w *window, f *future)
	// settle drives the connection until f is done, or one round further
	// (a UCR landing settles in a second round).
	settle(clk *simnet.VClock, w *window, f *future)
	// drain does the work the wire deferred on w: the requests or the
	// landings in w.deferred.
	drain(clk *simnet.VClock, w *window)
}

// window is the one pipeline engine: the futures a connection has
// outstanding, at most bound of them, over the wire of its transport.
// Each transport owns a window of one for its blocking calls (blk);
// Pipeline opens wider ones.
type window struct {
	wire  wire
	ex    *simnet.Executor // the deployment every exported call takes
	bound int              // most requests outstanding at once
	one   *future          // the transport's own window: the future every call reuses
	q     []*future        // outstanding, issue order
	// deferred is the wire's: sockets requests not yet written (the tail
	// of q), UCR entries settled off q with a write-reply landing to copy.
	deferred []*future
	spare    spares // spent futures, at most bound
	err      error  // first transport-level error (sticky)
}

// start admits req under a future — a spare or fresh one in a
// Pipeline() window; in the transport's own, its one future, and a fresh
// window: a blocking call inherits no sticky error (a wrong-key echo,
// say) from the call before — completing the oldest request while the
// window is full, and posts it.
func (w *window) start(clk *simnet.VClock, req future) *future {
	f := w.one
	if f == nil {
		f = w.spare.take()
	} else {
		w.err = nil
	}
	*f = req
	f.pipe = w
	for len(w.q) >= w.bound {
		w.wire.settle(clk, w, w.q[0])
	}
	w.q = append(w.q, f)
	w.wire.post(clk, w, f)
	return f
}

// halfWindow is a UCR wait's sweep bound when it finds its CQ ahead of
// it. A full-window sweep re-synchronizes the pipe whenever landing a
// reply takes as long as the gap to the next arrival (4 KB: ≈ 1.0 vµs
// copy, 1.06 vµs gap) — every reply is then "already visible", one wait
// takes all of them before the caller may issue, and the wire idles for
// a window's worth of issue time.
func (w *window) halfWindow() int { return (w.bound + 1) / 2 }

func (w *window) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// spend takes back a future whose Wait has copied its result out (a
// settled future is off q and deferred): zeroed, and kept as a spare, up
// to bound of them, unless it is the transport's own.
func (w *window) spend(f *future) {
	if f == w.one {
		return
	}
	*f = future{}
	w.spare.keep(f, w.bound)
}

// unlist removes e from list, keeping the order of the rest.
func unlist(list []*future, e *future) []*future {
	if i := slices.Index(list, e); i >= 0 {
		return slices.Delete(list, i, i+1) // zeroes the vacated tail slot
	}
	return list
}

// Flush does what the wire deferred and returns the sticky error.
func (w *window) Flush(clk *simnet.VClock) error {
	w.ex.Enter()
	defer w.ex.Exit()
	w.wire.drain(clk, w)
	return w.err
}

// Wait writes what is queued, settles everything outstanding and lands
// what settled.
func (w *window) Wait(clk *simnet.VClock) error {
	w.ex.Enter()
	defer w.ex.Exit()
	w.wire.drain(clk, w)
	for len(w.q) > 0 {
		w.wire.settle(clk, w, w.q[0])
	}
	w.wire.drain(clk, w)
	return w.err
}

func (w *window) StartGet(clk *simnet.VClock, key string) *GetFuture {
	return w.StartGetInto(clk, key, nil)
}

func (w *window) StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture {
	w.ex.Enter()
	defer w.ex.Exit()
	return w.startGet(clk, key, buf)
}

func (w *window) startGet(clk *simnet.VClock, key string, lend []byte) *GetFuture {
	return (*GetFuture)(w.start(clk, future{kind: futGet, key: key, lend: lend}))
}

func (w *window) StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	w.ex.Enter()
	defer w.ex.Exit()
	return w.startSet(clk, key, flags, exptime, value)
}

func (w *window) startSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	return (*SetFuture)(w.start(clk, future{kind: futSet, key: key, value: value, flags: flags, exptime: exptime}))
}

func (w *window) StartDelete(clk *simnet.VClock, key string) *BoolFuture {
	w.ex.Enter()
	defer w.ex.Exit()
	return w.startDelete(clk, key)
}

func (w *window) startDelete(clk *simnet.VClock, key string) *BoolFuture {
	return (*BoolFuture)(w.start(clk, future{kind: futDelete, key: key}))
}

// blocking is embedded by both transports: blk, the window of one every
// blocking call runs on, and one, the future every call reuses. What
// both transports do alike on it is written here once: a blocking call
// is a start on blk, then its result, under one hold of the deployment.
type blocking struct {
	blk window
	one future
}

// Pipeline implements Pipeliner: a window of at most bound (minimum 1)
// requests over the transport's wire.
func (b *blocking) Pipeline(bound int) Pipeline {
	return &window{wire: b.blk.wire, ex: b.blk.ex, bound: max(bound, 1)}
}

func (b *blocking) set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	b.blk.ex.Enter()
	defer b.blk.ex.Exit()
	return b.blk.startSet(clk, key, flags, exptime, value).result(clk)
}

func (b *blocking) delete(clk *simnet.VClock, key string) (bool, error) {
	b.blk.ex.Enter()
	defer b.blk.ex.Exit()
	return b.blk.startDelete(clk, key).result(clk)
}

// interface conformance
var (
	_ Pipeliner = (*UCRTransport)(nil)
	_ Pipeliner = (*SockTransport)(nil)
	_ Pipeline  = (*window)(nil)
	_ wire      = (*UCRTransport)(nil)
	_ wire      = (*SockTransport)(nil)
)
