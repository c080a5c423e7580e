package memcached

import (
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// ServerConfig tunes the server process.
type ServerConfig struct {
	// Workers is the number of worker threads (memcached -t; default 4).
	Workers int
	// Store sizes the cache engine.
	Store StoreConfig
	// OpCost is the command-processing cost (parse, hash, LRU) charged
	// per operation on both paths. It is also the baseline stripe-lock
	// hold time in the engine's contention model.
	OpCost simnet.Duration
	// CopyBytesPerSec is the memory-copy bandwidth used to extend a
	// stripe-lock hold by the bytes copied while the lock is held
	// (default 5 GB/s). Only the sockets path copies values under the
	// lock; UCR transfers land in or leave pinned slab memory outside
	// it (§V-B/§V-C).
	CopyBytesPerSec float64
	// UCREvents switches the UCR workers from CQ polling to interrupt-
	// style events (ablation: §II-A1 — polling gives the lowest latency).
	UCREvents bool
	// WriteReplyEager is the write-based reply crossover (bytes, reply
	// header included): an amGetW/amMGetW whose total reply is at or
	// below it keeps the eager copy path even though a window was
	// advertised — for small values the RDMA write's extra WQE beats
	// nothing, the pack copy is already cheaper. Above it (and within
	// the window) the server gather-writes the reply. Default 1 KB.
	WriteReplyEager int
}

// dispatchCost is the libevent notification + thread wakeup charged per
// sockets-path request event, the same on both clusters. The UCR path
// polls its CQ instead and pays only the (cheaper) poll/handler costs —
// one of the structural advantages the paper measures.
const dispatchCost = 3 * simnet.Microsecond

// ucrDrainBatch is how many completions a UCR worker may harvest per
// batched CQ drain: the first at the full poll cost unless the worker
// is still spinning from its last drain, the rest — already visible, or
// arriving within the poll spin — at the coalesced cost. Replies are
// not part of the batch: each is posted by its handler. With a single
// blocking client a completion arrives a round trip after the drain
// went cold, so the batch never engages and per-op timing is unchanged;
// it pays off under pipelined windows.
const ucrDrainBatch = 16

// coalescedOpCost is the command-processing cost charged for operations
// harvested by a batched CQ drain while the worker is hot — the 2nd..Nth
// completions of one sweep, and any op arriving within the drain's spin
// window. When a worker carries requests back to back, the *fixed* slice
// of the per-op cost amortizes: the parse/reply arenas and dispatch
// branches stay cache-hot, the striped-store buckets are touched in
// streaks, and the alloc-free steady-state paths never call into the
// allocator. It therefore subtracts that fixed dispatch slice (825 ns,
// 11/12 of the baseline 900 ns OpCost) and keeps the remainder: genuine
// engine execution time — the part a 25 µs heavy-op configuration is
// modeling — does not shrink because the previous request was recent, so
// worker-count scaling economics survive batching. A lone completion
// (any depth-1 client) arrives a full round trip after the drain went
// cold and always pays full OpCost, which keeps the golden figure tables
// bit-identical.
func coalescedOpCost(opCost simnet.Duration) simnet.Duration {
	return max(opCost-825, opCost/12)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CopyBytesPerSec <= 0 {
		c.CopyBytesPerSec = 5e9
	}
	if c.WriteReplyEager <= 0 {
		c.WriteReplyEager = 1 << 10
	}
	return c
}

// Server is the memcached process: one engine, a dispatcher, and a set
// of worker threads that serve both sockets and UCR clients (§V-A keeps
// the server compatible with both kinds at once).
//
// Serving is inline-stepped: the dispatcher and each worker are actors
// on the deployment's executor, run on the goroutine of whichever caller
// is waiting for a reply — the server owns no goroutine. A worker step
// completes the endpoints assigned to it and drains its UCR CQ and its
// ready sockets connections to empty; a request is carried end to end —
// parse, striped-store operation, reply build, reply post — on the
// worker that picked it up.
type Server struct {
	cfg   ServerConfig
	store *Store
	ex    *simnet.Executor // the deployment Close takes

	workers []*worker
	nextW   int

	// disp is the accept dispatcher: it owns every listener, assigns
	// connections round-robin (§V-A) and appends to conns.
	disp    *simnet.Actor
	sockLis []sockListener
	ucrLis  *ucr.Listener
	ucrClk  *simnet.VClock
	ucrRT   *ucr.Runtime
	conns   []*connState
	stopped bool
}

// sockListener is one sockets frontend with the dispatcher's clock for it.
type sockListener struct {
	lis *sockstream.Listener
	clk *simnet.VClock
}

// connState is one sockets client connection, owned by its worker.
type connState struct {
	conn   *sockstream.Conn
	proto  *ProtoConn
	closed bool // set once the conn is torn down
}

// worker is one server thread: an actor owning its UCR context's CQ, the
// endpoint requests the dispatcher assigned it and its sockets
// connections.
type worker struct {
	srv     *Server
	actor   *simnet.Actor
	clk     *simnet.VClock
	accepts *simnet.Mailbox[*verbs.ConnRequest]
	ctx     *ucr.Context // non-nil once ServeUCR ran

	sockRun []any // ready connections of one drainSock pass (reused)

	// pendingPins are pinned items whose reply transfer may still be in
	// flight; swept once the origin counter fires. A nil item tracks a
	// transfer with no pin to release (a staged mget write block) whose
	// counter still needs freeing.
	pendingPins []pendingPin
	// setConns are the connections that filed a Set since the last
	// sweep, swept for failed endpoints (sweepSets).
	setConns []*ucrConn

	// Per-worker arenas, reused across operations so the steady-state
	// AM hot path allocates nothing. Ownership rules are strict (see
	// DESIGN.md "Batch-scheduled serving"): reply holds AM reply
	// headers, which Send packs into the registered send buffer before
	// returning, so it is reusable on every path; vals stages eager
	// multi-get value blocks (eager sends also copy synchronously);
	// rendezvous payloads are NOT arena-backed — the peer reads them
	// asynchronously, so those paths allocate fresh buffers.
	reply     []byte
	vals      []byte
	mgetItems []*item
}

type pendingPin struct {
	ctr  *ucr.Counter
	item *item
}

// NewServer builds a server with a fresh store whose dispatcher and
// workers are actors on ex, the executor of the network it will serve.
func NewServer(ex *simnet.Executor, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, store: NewStore(cfg.Store), ex: ex}
	s.store.opCost, s.store.copyRate = cfg.OpCost, cfg.CopyBytesPerSec
	s.disp = ex.NewActor(s.dispatch)
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			srv:     s,
			clk:     simnet.NewVClock(0),
			accepts: simnet.NewMailboxOn[*verbs.ConnRequest](ex),
		}
		w.actor = ex.NewActor(w.step)
		w.accepts.SetOwner(w.actor, nil, nil)
		s.workers = append(s.workers, w)
	}
	return s
}

// Store exposes the engine (stats, tests).
func (s *Server) Store() *Store { return s.store }

// pickWorker assigns connections round-robin (§V-A).
func (s *Server) pickWorker() *worker {
	w := s.workers[s.nextW%len(s.workers)]
	s.nextW++
	return w
}

// sumContexts totals fn over the workers' progress contexts, holding
// the deployment (simnet.Executor.Enter) so no worker steps meanwhile:
// the counters belong to the workers, and this is what makes them
// readable on a serving deployment.
func (s *Server) sumContexts(fn func(*ucr.Context) uint64) (total uint64) {
	s.ex.Enter()
	defer s.ex.Exit()
	for _, w := range s.workers {
		if w.ctx != nil {
			total += fn(w.ctx)
		}
	}
	return total
}

// UCRRecvBufferBytes totals the UCR receive-buffer memory across the
// workers' progress contexts (the §VII SRQ-vs-windows footprint).
func (s *Server) UCRRecvBufferBytes() int64 {
	return int64(s.sumContexts(func(c *ucr.Context) uint64 { return uint64(c.RecvBufferBytes()) }))
}

// UCRSRQDemux totals how many arrivals the workers' progress contexts
// demultiplexed off their shared receive queues — zero unless the
// runtime was configured with UseSRQ. Tests use it as a vacuity guard
// for the shared-SRQ serving path.
func (s *Server) UCRSRQDemux() uint64 { return s.sumContexts((*ucr.Context).SRQDemux) }

// UCRBatchedDrains totals how many batched CQ drains harvested more
// than one completion across the workers' progress contexts. It is the
// vacuity guard for the batch-scheduled path: a pipelined workload that
// claims to exercise coalesced draining must observe this counter move.
func (s *Server) UCRBatchedDrains() uint64 { return s.sumContexts((*ucr.Context).BatchedDrains) }

// WorkerClocks reports each worker's virtual time between its steps
// (benchmarks use the max as the server-side makespan), holding the
// deployment as sumContexts does.
func (s *Server) WorkerClocks() []simnet.Time {
	s.ex.Enter()
	defer s.ex.Exit()
	out := make([]simnet.Time, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.clk.Now()
	}
	return out
}

// ServeSockets starts the sockets frontend on the given listener: the
// dispatcher accepts its connections and hands each to a worker. Like
// ServeUCR it is setup, run by the deployment's holder or before anyone
// drives the deployment, so it sets the dispatcher's state directly.
func (s *Server) ServeSockets(lis *sockstream.Listener) {
	s.sockLis = append(s.sockLis, sockListener{lis, simnet.NewVClock(0)})
	lis.SetOwner(s.disp)
}

// ServeUCR starts the UCR frontend: handlers are registered on rt, each
// worker gets a progress context whose CQ it owns, and the dispatcher
// assigns inbound endpoints round-robin.
func (s *Server) ServeUCR(rt *ucr.Runtime, service string) error {
	lis, err := rt.Listen(service)
	if err != nil {
		return err
	}
	s.ucrRT = rt
	s.registerAMHandlers(rt)
	for _, w := range s.workers {
		ctx := rt.NewContext()
		ctx.UseEvents(s.cfg.UCREvents)
		ctx.SetOwner(w.actor)
		w.ctx = ctx
	}
	s.ucrLis, s.ucrClk = lis, simnet.NewVClock(0)
	lis.SetOwner(s.disp)
	return nil
}

// dispatch is the dispatcher's step: accept everything pending on every
// listener, seating each connection on its worker.
func (s *Server) dispatch() {
	for _, sl := range s.sockLis {
		for {
			conn, ok := sl.lis.TryAccept(sl.clk)
			if !ok {
				break
			}
			w := s.pickWorker()
			conn.SetClock(w.clk)
			cs := &connState{conn: conn, proto: NewProtoConn(conn, s.store)}
			s.conns = append(s.conns, cs)
			// Owning the connection lists it as ready at once if bytes (or
			// a close) beat the accept, and on every later arrival.
			conn.SetOwner(w.actor, cs)
		}
	}
	for s.ucrLis != nil {
		req, ok := s.ucrLis.TryNext(s.ucrClk)
		if !ok {
			break
		}
		s.pickWorker().accepts.Put(req)
	}
}

// Close shuts the server down synchronously: the dispatcher retires (so
// no connection is seated afterwards), listeners close, every connection
// closes — waking its peer's reads with EOF — each worker retires and
// destroys its UCR context, and the one-sided index's windows are
// revoked. No step runs after it returns. It holds the deployment
// (simnet.Executor.Enter) throughout, the stopped check included:
// closing a connection reaches into its client's endpoint.
func (s *Server) Close() {
	s.ex.Enter()
	defer s.ex.Exit()
	if s.stopped {
		return
	}
	s.stopped = true
	s.disp.Stop()
	for _, sl := range s.sockLis {
		sl.lis.Close()
	}
	if s.ucrLis != nil {
		s.ucrLis.Close()
	}
	for _, cs := range s.conns {
		cs.conn.Close()
	}
	for _, w := range s.workers {
		w.actor.Stop()
		if w.ctx != nil {
			w.ctx.Destroy()
		}
	}
	if x := s.store.pub; x != nil {
		x.close()
		s.store.pub = nil
	}
}

// step is the worker's turn: complete the endpoints the dispatcher
// assigned, drain the UCR CQ in coalesced batches, serve every ready
// sockets connection. Each drain runs to empty.
func (w *worker) step() {
	for {
		req, ok, _ := w.accepts.TryRecv()
		if !ok {
			break
		}
		w.handleUCRAccept(req)
	}
	w.drainUCR()
	w.drainSock()
}

// drainSock serves every connection that became ready, until none is.
func (w *worker) drainSock() {
	for {
		w.sockRun = w.actor.TakeReady(w.sockRun[:0])
		if len(w.sockRun) == 0 {
			return
		}
		for i, cs := range w.sockRun {
			w.serveConn(cs.(*connState))
			w.sockRun[i] = nil
		}
	}
}

// serveConn serves every request already buffered on the connection
// (one readiness edge can harvest a pipelined burst). dispatchCost is
// charged only when there is data to serve: a readiness edge whose
// bytes were already consumed by an earlier burst is a no-op with no
// virtual-time footprint.
func (w *worker) serveConn(cs *connState) {
	if cs.closed {
		return
	}
	if cs.proto.buffered() == 0 && cs.conn.Buffered() == 0 {
		if cs.conn.StreamClosed() {
			cs.closed = true
			cs.conn.Close()
		}
		return
	}
	w.clk.Advance(dispatchCost)
	for {
		quit, err := cs.proto.ServeOne(w.clk)
		if err != nil || quit {
			cs.closed = true
			cs.conn.Close()
			return
		}
		w.clk.Advance(w.srv.cfg.OpCost)
		if cs.proto.buffered() == 0 && cs.conn.Buffered() == 0 {
			return
		}
	}
}

// handleUCRAccept completes an endpoint into this worker's context and
// seats the connection's state on it for the AM handlers.
func (w *worker) handleUCRAccept(req *verbs.ConnRequest) {
	ep, err := w.ctx.Accept(req, w.clk)
	if err != nil {
		req.Reject(err)
		return
	}
	ep.UserData = &ucrConn{w: w, ep: ep}
}

// drainUCR sweeps the context's pending completions in batched drains
// (one full-cost poll per sweep, coalesced harvests for whatever else
// is already visible or arrives within the poll spin). Only the polling
// side batches: a handler's reply is posted before the handler returns,
// so it never waits behind the next request's harvest and pack copy.
func (w *worker) drainUCR() {
	if w.ctx == nil {
		return
	}
	for {
		if _, more := w.ctx.TryProgressN(w.clk, ucrDrainBatch); !more {
			break
		}
	}
	if len(w.pendingPins) > 0 {
		w.sweepPins()
	}
	if len(w.setConns) > 0 {
		w.sweepSets()
	}
}

// sweepSets releases the in-flight Sets of every listed connection that
// can no longer complete one. An eager Set completes in the call that
// ran its header; a rendezvous one when the server's RDMA read of its
// value lands. A read that fails runs no completion (the endpoint is
// marked failed instead), so once a failed endpoint has no read in
// flight its remaining Sets are dead: each allocated item is unpinned
// (never linked, its chunk is freed) and the pooled landing of a Set that allocated nothing is recycled. A read
// still in flight on a failed endpoint may yet land and commit its Set.
// A connection leaves the list once no Set of it is in flight.
func (w *worker) sweepSets() {
	keep := w.setConns[:0]
	for _, c := range w.setConns {
		if c.ep.Failed() && c.ep.ReadsInFlight() == 0 {
			for i, p := range c.sets {
				if p.item != nil {
					w.srv.store.unpin(p.item)
				} else {
					w.ctx.Recycle(p.land)
				}
				c.sets[i] = setPending{}
			}
			c.sets = c.sets[:0]
		}
		if len(c.sets) > 0 {
			keep = append(keep, c)
		} else {
			c.listed = false
		}
	}
	tail := w.setConns[len(keep):]
	for i := range tail {
		tail[i] = nil
	}
	w.setConns = keep
}

// sweepPins unpins items whose reply transfer has completed.
func (w *worker) sweepPins() {
	keep := w.pendingPins[:0]
	for _, p := range w.pendingPins {
		if p.ctr.Value() > 0 {
			if p.item != nil {
				w.srv.store.unpin(p.item)
			}
			w.srv.ucrRT.FreeCounter(p.ctr)
		} else {
			keep = append(keep, p)
		}
	}
	tail := w.pendingPins[len(keep):]
	for i := range tail {
		tail[i] = pendingPin{}
	}
	w.pendingPins = keep
}
