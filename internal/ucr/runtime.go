package ucr

import (
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
	"repro/internal/verbs"
)

// Runtime is one process's UCR instance: the handler table, the counter
// registry, and the verbs resources shared by that process's progress
// contexts (a Memcached server creates one Runtime and one Context per
// worker thread; a client creates one of each).
type Runtime struct {
	hca *verbs.HCA
	cm  *verbs.CM
	cfg Config
	pd  *verbs.PD

	handlers [256]atomic.Pointer[Handler]

	ctrMu    sync.Mutex
	counters map[CounterID]*Counter
	nextCtr  uint64
	freeCtrs []*Counter // struct pool; ids are never reused, structs are

	regs *regCache

	closed atomic.Bool
}

// New creates a runtime on the given adapter, using cm for endpoint
// establishment.
func New(hca *verbs.HCA, cm *verbs.CM, cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	return &Runtime{
		hca:      hca,
		cm:       cm,
		cfg:      cfg,
		pd:       hca.AllocPD(),
		counters: make(map[CounterID]*Counter),
		regs:     newRegCache(cfg.RegCacheEntries),
	}
}

// Config reports the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// HCA reports the underlying adapter.
func (rt *Runtime) HCA() *verbs.HCA { return rt.hca }

// Node reports the host node.
func (rt *Runtime) Node() *simnet.Node { return rt.hca.Node() }

// RegisterHandler installs the handler pair for a message id. Handlers
// are normally registered once at start-up, before traffic flows.
func (rt *Runtime) RegisterHandler(msgID uint8, h Handler) {
	hh := h
	rt.handlers[msgID].Store(&hh)
}

func (rt *Runtime) handler(msgID uint8) *Handler {
	return rt.handlers[msgID].Load()
}

// maxCtrPool bounds the retained counter-struct pool.
const maxCtrPool = 1024

// NewCounter issues a counter with a fresh network-visible id. The
// struct comes from the free pool when one is available, so steady-state
// request loops do not allocate; the id is always new (ids are the
// late-duplicate defense and are never reused).
func (rt *Runtime) NewCounter() *Counter {
	rt.ctrMu.Lock()
	defer rt.ctrMu.Unlock()
	rt.nextCtr++
	var c *Counter
	if k := len(rt.freeCtrs); k > 0 {
		c = rt.freeCtrs[k-1]
		rt.freeCtrs[k-1] = nil
		rt.freeCtrs = rt.freeCtrs[:k-1]
		c.val.Store(0)
	} else {
		c = &Counter{}
	}
	c.id.Store(uint64(rt.nextCtr))
	rt.counters[CounterID(rt.nextCtr)] = c
	return c
}

// lookupCounter resolves a counter id (0 → nil).
func (rt *Runtime) lookupCounter(id CounterID) *Counter {
	if id == 0 {
		return nil
	}
	rt.ctrMu.Lock()
	defer rt.ctrMu.Unlock()
	return rt.counters[id]
}

// FreeCounter removes a counter from the registry and recycles the
// struct. Freeing a counter that is not registered (double free) leaves
// the pool untouched, so a struct can never be pooled twice.
func (rt *Runtime) FreeCounter(c *Counter) {
	if c == nil {
		return
	}
	rt.ctrMu.Lock()
	id := CounterID(c.id.Load())
	if rt.counters[id] == c {
		delete(rt.counters, id)
		if len(rt.freeCtrs) < maxCtrPool {
			rt.freeCtrs = append(rt.freeCtrs, c)
		}
	}
	rt.ctrMu.Unlock()
}

// Close marks the runtime closed. Contexts and endpoints created from it
// keep working until individually closed; Close only blocks new Listen
// and Dial calls.
func (rt *Runtime) Close() { rt.closed.Store(true) }

// Listener accepts UCR endpoint requests for a service.
type Listener struct {
	rt  *Runtime
	lis *verbs.Listener
}

// Listen binds a UCR service name on this runtime's node.
func (rt *Runtime) Listen(service string) (*Listener, error) {
	if rt.closed.Load() {
		return nil, ErrClosed
	}
	vl, err := rt.cm.Listen(service)
	if err != nil {
		return nil, err
	}
	return &Listener{rt: rt, lis: vl}, nil
}

// Accept blocks for the next endpoint request and completes it within
// ctx (the accepting worker's progress context). ok=false means the
// listener was closed.
func (l *Listener) Accept(ctx *Context, clk *simnet.VClock) (*Endpoint, bool) {
	req, ok := l.lis.Accept(clk)
	if !ok {
		return nil, false
	}
	ep, err := ctx.Accept(req, clk)
	if err != nil {
		req.Reject(err)
		return nil, ok
	}
	return ep, true
}

// TryNext returns a pending raw endpoint request without completing it,
// so a dispatcher can hand it to a worker's context (the worker then
// calls Context.Accept). ok=false means nothing is pending.
func (l *Listener) TryNext(clk *simnet.VClock) (*verbs.ConnRequest, bool) {
	return l.lis.TryAccept(clk)
}

// SetOwner makes actor a the listener's dispatcher: every request makes
// a ready.
func (l *Listener) SetOwner(a *simnet.Actor) { l.lis.SetOwner(a) }

// Close stops accepting.
func (l *Listener) Close() { l.lis.Close() }
