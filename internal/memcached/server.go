package memcached

import (
	"sync"
	"sync/atomic"
	"time"

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
	// DispatchCost is the libevent notification + thread wakeup charged
	// per sockets-path request event. The UCR path polls its CQ instead
	// and pays only the (cheaper) poll/handler costs — one of the
	// structural advantages the paper measures.
	DispatchCost simnet.Duration
	// OpCost is the command-processing cost (parse, hash, LRU) charged
	// per operation on both paths. It is also the baseline shard-lock
	// hold time in the engine's contention model.
	OpCost simnet.Duration
	// CoalescedOpCost is the command-processing cost charged for
	// operations harvested by a batched CQ drain while the worker is
	// hot — the 2nd..Nth completions of one sweep, and any op arriving
	// within the drain's spin window. When a worker carries requests
	// back to back, the *fixed* slice of the per-op cost amortizes: the
	// parse/reply arenas and dispatch branches stay cache-hot, the
	// striped-store buckets are touched in streaks, and the alloc-free
	// steady-state paths never call into the allocator. The default
	// therefore subtracts that fixed dispatch slice (825 ns, 11/12 of
	// the baseline 900 ns OpCost) and keeps the remainder: genuine
	// engine execution time — the part a 25 µs heavy-op configuration
	// is modeling — does not shrink because the previous request was
	// recent, so worker-count scaling economics survive batching. A
	// lone completion (any depth-1 client) arrives a full round trip
	// after the drain went cold and always pays full OpCost, which
	// keeps the golden figure tables bit-identical.
	CoalescedOpCost simnet.Duration
	// CopyBytesPerSec is the memory-copy bandwidth used to extend a
	// shard-lock hold by the bytes copied while the lock is held
	// (default 5 GB/s). Only the sockets path copies values under the
	// lock; UCR transfers land in or leave pinned slab memory outside
	// it (§V-B/§V-C).
	CopyBytesPerSec float64
	// UCREvents switches the UCR workers from CQ polling to interrupt-
	// style events (ablation: §II-A1 — polling gives the lowest latency).
	UCREvents bool
	// WriteReplyEager is the write-based reply crossover (bytes, reply
	// header included): an AMGetW/AMMGetW whose total reply is at or
	// below it keeps the eager copy path even though a window was
	// advertised — for small values the RDMA write's extra WQE beats
	// nothing, the pack copy is already cheaper. Above it (and within
	// the window) the server gather-writes the reply. Default 1 KB.
	WriteReplyEager int
	// UCRDrainBatch is how many completions a UCR worker may harvest per
	// batched CQ drain (default 16): the first at the full poll cost,
	// the rest — only those already visible — at the coalesced cost.
	// With a single blocking client at most one completion is ever
	// visible at a time, so the batch never engages and per-op timing is
	// unchanged; it pays off under pipelined windows.
	UCRDrainBatch int
	// AcceptRealCap bounds listener waits in real time (shutdown knob).
	AcceptRealCap time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.AcceptRealCap <= 0 {
		c.AcceptRealCap = 100 * time.Millisecond
	}
	if c.UCRDrainBatch <= 0 {
		c.UCRDrainBatch = 16
	}
	if c.CopyBytesPerSec <= 0 {
		c.CopyBytesPerSec = 5e9
	}
	if c.WriteReplyEager <= 0 {
		c.WriteReplyEager = 1 << 10
	}
	if c.CoalescedOpCost <= 0 {
		// Amortize the fixed dispatch slice only (see the field doc):
		// execution-heavy configurations keep nearly the full cost.
		c.CoalescedOpCost = c.OpCost - 825
		if c.CoalescedOpCost < c.OpCost/12 {
			c.CoalescedOpCost = c.OpCost / 12
		}
	}
	return c
}

// Server is the memcached process: one engine, a dispatcher, and a set
// of worker threads that serve both sockets and UCR clients (§V-A keeps
// the server compatible with both kinds at once).
//
// Serving is batch-scheduled: each worker is a single event loop that
// parks on three edge-triggered signals (its control mailbox, its UCR
// CQ, its sockets ready list) and, once woken, drains each source to
// empty before parking again. A request is carried end to end — parse,
// striped-store operation, reply build, reply post — on the worker that
// picked it up; there are no per-connection goroutines, no CQ-waker
// goroutines, and no channel hand-offs on the hot path.
type Server struct {
	cfg   ServerConfig
	store *Store

	workers []*worker
	nextW   atomic.Uint64

	wg      sync.WaitGroup
	stopped atomic.Bool
	stopCh  chan struct{}

	connMu sync.Mutex
	conns  []*connState

	sockLis []*sockstream.Listener
	ucrLis  *ucr.Listener
	ucrRT   *ucr.Runtime
	// ctxs are the workers' progress contexts, in worker order
	// (read-only after ServeUCR; accessors use this list so they never
	// race the workers' own ctx hand-off events).
	ctxs []*ucr.Context
	// ctxOwner maps each worker's progress context back to its worker
	// for AM handler dispatch (read-only after ServeUCR).
	ctxOwner map[*ucr.Context]*worker

	// OpsServed counts completed requests across workers.
	OpsServed atomic.Uint64
}

// event kinds delivered to workers. All of these are control-plane
// only (accepts, frontend start, shutdown); data-plane readiness rides
// the edge-triggered notification channels instead.
type eventKind uint8

const (
	evSockAccept eventKind = iota
	evUCRStart
	evUCRAccept
	evStop
)

type workEvent struct {
	kind eventKind
	cs   *connState
	req  any // *verbs.ConnRequest for evUCRAccept, *ucr.Context for evUCRStart
}

// connState is one sockets client connection. The worker owns conn and
// proto exclusively; queued is the ready-list dedup flag, guarded by
// the worker's sockMu (the ready hook runs on the sender's goroutine).
type connState struct {
	conn   *sockstream.Conn
	proto  *ProtoConn
	worker *worker
	closed bool // worker-private: set once the conn is torn down
	queued bool // guarded by worker.sockMu
}

// worker is one server thread: a single goroutine event loop.
type worker struct {
	id    int
	srv   *Server
	clk   *simnet.VClock
	queue *simnet.Mailbox[workEvent]
	ctx   *ucr.Context // non-nil once evUCRStart delivered it

	// Sockets readiness: connection ready hooks (running on the
	// delivering client's goroutine) append here and poke the loop.
	sockMu    sync.Mutex
	sockReady []*connState
	sockPoke  chan struct{} // cap 1, edge-triggered
	sockRun   []*connState  // worker-private double buffer

	// pendingSets maps an endpoint to its in-flight Set states
	// (between the Set header handler and its completion handler).
	pendingSets map[*ucr.Endpoint]*setPendQ
	// pendingPins are pinned items whose reply transfer may still be in
	// flight; swept once the origin counter fires. A nil item tracks a
	// transfer with no pin to release (a staged mget write block) whose
	// counter still needs freeing.
	pendingPins []pendingPin
	// staleWins is mut_wrreply_stale state: the previous request's reply
	// window per endpoint. Nil in a normal build.
	staleWins map[*ucr.Endpoint]ucr.WindowDesc
	// wrTabs holds each armed connection's reply-arena geometry from its
	// one-time AMArm capability exchange; slot-advertising requests
	// resolve their write window here.
	wrTabs map[*ucr.Endpoint]ArmReq

	// Per-worker arenas, reused across operations so the steady-state
	// AM hot path allocates nothing. Ownership rules are strict (see
	// DESIGN.md "Batch-scheduled serving"): reply holds AM reply
	// headers, which Send packs into the registered send buffer before
	// returning, so it is reusable on every path; vals stages eager
	// multi-get value blocks (eager sends also copy synchronously);
	// rendezvous payloads are NOT arena-backed — the peer reads them
	// asynchronously, so those paths allocate fresh buffers.
	reply        []byte
	vals         []byte
	mgetItems    []*Item
	scratch      []byte // landing buffer for sets whose allocation failed
	storeScratch []byte // eager conditional-store staging
}

type pendingPin struct {
	ctr  *ucr.Counter
	item *Item
}

// setPendQ is a per-endpoint FIFO of in-flight Set states with a
// reusable backing array: pops advance a head index instead of
// re-slicing, so steady-state traffic never re-allocates the queue.
type setPendQ struct {
	q    []setPending
	head int
}

func (q *setPendQ) push(p setPending) { q.q = append(q.q, p) }

func (q *setPendQ) pop() (setPending, bool) {
	if q.head >= len(q.q) {
		return setPending{}, false
	}
	p := q.q[q.head]
	q.q[q.head] = setPending{} // drop the item reference
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	return p, true
}

// NewServer builds a server with a fresh store.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, store: NewStore(cfg.Store), stopCh: make(chan struct{})}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:          i,
			srv:         s,
			clk:         simnet.NewVClock(0),
			queue:       simnet.NewMailbox[workEvent](),
			sockPoke:    make(chan struct{}, 1),
			pendingSets: make(map[*ucr.Endpoint]*setPendQ),
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.run()
		}()
	}
	return s
}

// Store exposes the engine (stats, tests).
func (s *Server) Store() *Store { return s.store }

// Workers reports the worker count.
func (s *Server) Workers() int { return len(s.workers) }

// pickWorker assigns connections round-robin (§V-A).
func (s *Server) pickWorker() *worker {
	n := s.nextW.Add(1) - 1
	return s.workers[int(n)%len(s.workers)]
}

// UCRRecvBufferBytes totals the UCR receive-buffer memory across the
// workers' progress contexts (the §VII SRQ-vs-windows footprint).
func (s *Server) UCRRecvBufferBytes() int64 {
	var total int64
	for _, ctx := range s.ctxs {
		total += ctx.RecvBufferBytes()
	}
	return total
}

// UCRSRQDemux totals how many arrivals the workers' progress contexts
// demultiplexed off their shared receive queues — zero unless the
// runtime was configured with UseSRQ. Tests use it as a vacuity guard
// for the shared-SRQ serving path.
func (s *Server) UCRSRQDemux() uint64 {
	var total uint64
	for _, ctx := range s.ctxs {
		total += ctx.SRQDemux()
	}
	return total
}

// UCRBatchedDrains totals how many batched CQ drains harvested more
// than one completion across the workers' progress contexts. It is the
// vacuity guard for the batch-scheduled path: a pipelined workload that
// claims to exercise coalesced draining must observe this counter move.
// Read it quiesced (after Close, or with clients drained) — workers
// update it without synchronization.
func (s *Server) UCRBatchedDrains() uint64 {
	var total uint64
	for _, ctx := range s.ctxs {
		total += ctx.BatchedDrains()
	}
	return total
}

// WorkerClocks reports each worker's current virtual time (benchmarks
// use the max as the server-side makespan).
func (s *Server) WorkerClocks() []simnet.Time {
	out := make([]simnet.Time, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.clk.Now()
	}
	return out
}

// ServeSockets starts the sockets frontend on the given listener. The
// dispatcher goroutine owns the accept loop; each accepted connection
// is assigned round-robin and handed to its worker, which installs an
// edge-triggered ready hook in place of the old per-connection waker
// goroutine.
func (s *Server) ServeSockets(lis *sockstream.Listener) {
	s.sockLis = append(s.sockLis, lis)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		dispClk := simnet.NewVClock(0)
		for !s.stopped.Load() {
			conn, ok := lis.AcceptTimeout(dispClk, s.cfg.AcceptRealCap)
			if !ok {
				if s.stopped.Load() {
					return
				}
				continue
			}
			w := s.pickWorker()
			conn.NoDelay = true
			conn.SetClock(w.clk)
			proto := NewProtoConn(conn, s.store)
			proto.SetCostModel(s.cfg.OpCost, s.cfg.CopyBytesPerSec)
			cs := &connState{conn: conn, proto: proto, worker: w}
			s.connMu.Lock()
			if s.stopped.Load() {
				// Close() has (or may have) already snapshotted s.conns;
				// appending now would leak a live conn whose dialer blocks
				// forever waiting for a reply. Close it here instead so the
				// peer's pending reads wake with EOF. The stopped check must
				// happen under connMu: Close() sets the flag before taking
				// the lock, so a false reading guarantees our append lands
				// in the snapshot.
				s.connMu.Unlock()
				conn.Close()
				return
			}
			s.conns = append(s.conns, cs)
			s.connMu.Unlock()
			w.queue.Put(workEvent{kind: evSockAccept, cs: cs})
		}
	}()
}

// ServeUCR starts the UCR frontend: handlers are registered on rt, each
// worker is handed a progress context through its control mailbox, and
// the dispatcher assigns inbound endpoints round-robin. Completion
// readiness reaches the workers through their CQs' notification
// channels — there are no CQ-waker goroutines.
func (s *Server) ServeUCR(rt *ucr.Runtime, service string) error {
	s.ucrRT = rt
	s.registerAMHandlers(rt)
	s.ctxOwner = make(map[*ucr.Context]*worker, len(s.workers))
	for _, w := range s.workers {
		ctx := rt.NewContext()
		ctx.UseEvents(s.cfg.UCREvents)
		s.ctxs = append(s.ctxs, ctx)
		s.ctxOwner[ctx] = w
		w.queue.Put(workEvent{kind: evUCRStart, req: ctx})
	}
	lis, err := rt.Listen(service)
	if err != nil {
		return err
	}
	s.ucrLis = lis
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		dispClk := simnet.NewVClock(0)
		for !s.stopped.Load() {
			req, ok := lis.Next(dispClk, s.cfg.AcceptRealCap)
			if !ok {
				if s.stopped.Load() {
					return
				}
				continue
			}
			s.pickWorker().queue.Put(workEvent{kind: evUCRAccept, req: req})
		}
	}()
	return nil
}

// Close shuts the server down: listeners stop, connections close, and
// workers drain and exit (each destroying its own UCR context).
func (s *Server) Close() {
	if s.stopped.Swap(true) {
		return
	}
	close(s.stopCh)
	for _, lis := range s.sockLis {
		lis.Close()
	}
	if s.ucrLis != nil {
		s.ucrLis.Close()
	}
	s.connMu.Lock()
	conns := s.conns
	s.connMu.Unlock()
	for _, cs := range conns {
		cs.conn.Close()
	}
	for _, w := range s.workers {
		w.queue.Put(workEvent{kind: evStop})
	}
	s.wg.Wait()
}

// run is the worker event loop: drain the control mailbox, drain the
// UCR CQ in coalesced batches, serve every ready sockets connection,
// then park until any source signals again. Each drain runs to empty,
// so a stale wakeup token costs one no-op pass, never a lost event.
func (w *worker) run() {
	defer func() {
		if w.ctx != nil {
			w.ctx.Destroy()
		}
	}()
	var incoming <-chan struct{} // nil (blocks forever) until UCR starts
	for {
		for {
			ev, ok, _ := w.queue.TryRecv()
			if !ok {
				break
			}
			switch ev.kind {
			case evStop:
				return
			case evSockAccept:
				w.acceptSock(ev.cs)
			case evUCRStart:
				w.ctx = ev.req.(*ucr.Context)
				incoming = w.ctx.IncomingC()
			case evUCRAccept:
				w.handleUCRAccept(ev)
			}
		}
		w.drainUCR()
		w.drainSock()
		select {
		case <-w.queue.NotifyC():
		case <-incoming:
		case <-w.sockPoke:
		case <-w.srv.stopCh:
			return
		}
	}
}

// acceptSock seats a freshly accepted connection on this worker: the
// ready hook marks the connection runnable from the delivering
// goroutine and pokes the loop. Arrivals that landed before the hook
// was installed fire no notification, so the worker self-queues the
// connection if data (or a close) is already pending.
func (w *worker) acceptSock(cs *connState) {
	cs.conn.SetReadyHook(func() {
		w.sockMu.Lock()
		if !cs.queued {
			cs.queued = true
			w.sockReady = append(w.sockReady, cs)
		}
		w.sockMu.Unlock()
		select {
		case w.sockPoke <- struct{}{}:
		default:
		}
	})
	if cs.conn.Buffered() > 0 || cs.conn.StreamClosed() {
		w.sockMu.Lock()
		if !cs.queued {
			cs.queued = true
			w.sockReady = append(w.sockReady, cs)
		}
		w.sockMu.Unlock()
	}
}

// drainSock serves every connection on the ready list. The list is
// swapped against a worker-private double buffer so hooks can keep
// queueing while the worker serves.
func (w *worker) drainSock() {
	for {
		w.sockMu.Lock()
		if len(w.sockReady) == 0 {
			w.sockMu.Unlock()
			return
		}
		run := w.sockReady
		w.sockReady = w.sockRun[:0]
		for _, cs := range run {
			cs.queued = false
		}
		w.sockMu.Unlock()
		for i, cs := range run {
			w.serveConn(cs)
			run[i] = nil
		}
		w.sockRun = run[:0]
	}
}

// serveConn serves every request already buffered on the connection
// (one readiness edge can harvest a pipelined burst). DispatchCost is
// charged only when there is data to serve: a readiness edge whose
// bytes were already consumed by an earlier burst is a no-op with no
// virtual-time footprint, which keeps depth-1 timing identical to the
// old waker model.
func (w *worker) serveConn(cs *connState) {
	if cs.closed {
		return
	}
	if cs.proto.Buffered() == 0 && cs.conn.Buffered() == 0 {
		if cs.conn.StreamClosed() {
			cs.closed = true
			cs.conn.Close()
		}
		return
	}
	w.clk.Advance(w.srv.cfg.DispatchCost)
	for {
		quit, err := cs.proto.ServeOne(w.clk)
		if err != nil || quit {
			cs.closed = true
			cs.conn.Close()
			return
		}
		w.srv.OpsServed.Add(1)
		w.clk.Advance(w.srv.cfg.OpCost)
		if cs.proto.Buffered() == 0 && cs.conn.Buffered() == 0 {
			return
		}
	}
}

// handleUCRAccept completes an endpoint into this worker's context.
func (w *worker) handleUCRAccept(ev workEvent) {
	req := ev.req.(*verbs.ConnRequest)
	if _, err := w.ctx.Accept(req, w.clk); err != nil {
		req.Reject(err)
	}
}

// drainUCR sweeps the context's pending completions in batched drains
// (one full-cost poll per sweep, coalesced harvests for whatever else
// is already visible). Reply sends queued by the AM handlers during one
// sweep are flushed as a single doorbell-coalesced post burst; a sweep
// that harvested one completion posts a burst of one, which charges
// exactly what an inline post did — depth-1 timing is unchanged.
func (w *worker) drainUCR() {
	if w.ctx == nil {
		return
	}
	for {
		w.ctx.BeginPostBatch()
		n := w.ctx.TryProgressN(w.clk, w.srv.cfg.UCRDrainBatch)
		_ = w.ctx.FlushPosts(w.clk)
		if n == 0 {
			break
		}
	}
	if len(w.pendingPins) > 0 {
		w.sweepPins()
	}
}

// sweepPins unpins items whose reply transfer has completed.
func (w *worker) sweepPins() {
	keep := w.pendingPins[:0]
	for _, p := range w.pendingPins {
		if p.ctr.Value() > 0 {
			if p.item != nil {
				w.srv.store.Unpin(p.item)
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
