package ucr

import (
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

	handlers *Handlers // nil until a handler is registered or shared
	shared   bool      // handlers is another's table: copy before writing

	// The counter table, on the scheme slots uses: a CounterID is
	// generation<<32 | index, and the struct at an index is kept across
	// generations, so issuing allocates nothing once the table is warm
	// and a freed or reissued id misses by construction.
	ctrs    []*Counter
	ctrFree []uint32

	regs *regCache
}

// New creates a runtime on the given adapter, using cm for endpoint
// establishment.
func New(hca *verbs.HCA, cm *verbs.CM, cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	return &Runtime{
		hca:  hca,
		cm:   cm,
		cfg:  cfg,
		pd:   hca.AllocPD(),
		regs: newRegCache(cfg.RegCacheEntries),
	}
}

// Config reports the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// HCA reports the underlying adapter.
func (rt *Runtime) HCA() *verbs.HCA { return rt.hca }

// RegisterHandler installs the handler pair for a message id. Handlers
// are normally registered once at start-up, before traffic flows.
func (rt *Runtime) RegisterHandler(msgID uint8, h Handler) {
	if rt.handlers == nil || rt.shared {
		own := new(Handlers)
		if rt.handlers != nil {
			*own = *rt.handlers
		}
		rt.handlers, rt.shared = own, false
	}
	rt.handlers.Register(msgID, h)
}

// ShareHandlers installs t as the runtime's whole handler table, shared
// with every other runtime of the same service: a client runtime then
// holds no table of its own.
func (rt *Runtime) ShareHandlers(t *Handlers) { rt.handlers, rt.shared = t, true }

func (rt *Runtime) handler(msgID uint8) *Handler {
	if rt.handlers == nil {
		return nil
	}
	return rt.handlers[msgID]
}

// NewCounter issues a counter at zero under a fresh network-visible id:
// a free index's struct under its next generation, or a new index. The
// id is the late-duplicate defense — no earlier id resolves to it.
func (rt *Runtime) NewCounter() *Counter {
	var i uint32
	if n := len(rt.ctrFree); n > 0 {
		i = rt.ctrFree[n-1]
		rt.ctrFree = rt.ctrFree[:n-1]
	} else {
		i = uint32(len(rt.ctrs))
		rt.ctrs = append(rt.ctrs, &Counter{})
	}
	c := rt.ctrs[i]
	c.gen++
	c.val = 0
	c.id = CounterID(c.gen)<<32 | CounterID(i)
	return c
}

// Counter resolves the counter a message targets: nil for 0, a freed or
// reissued id, and one this runtime never issued.
func (rt *Runtime) Counter(id CounterID) *Counter {
	if i := uint32(id); id != 0 && int(i) < len(rt.ctrs) && rt.ctrs[i].id == id {
		return rt.ctrs[i]
	}
	return nil
}

// bump fires the counter id names, if it is still issued.
func (rt *Runtime) bump(id CounterID) {
	if id == 0 {
		return
	}
	if c := rt.Counter(id); c != nil {
		c.val++
	}
}

// FreeCounter retires a counter's id and frees its index for the next
// generation. Freeing a counter that is not issued (double free) does
// nothing, so an index can never be freed twice.
func (rt *Runtime) FreeCounter(c *Counter) {
	if c == nil {
		return
	}
	if id := c.id; rt.Counter(id) == c {
		c.id = 0
		c.UserData = nil
		rt.ctrFree = append(rt.ctrFree, uint32(id))
	}
}

// Listener accepts UCR endpoint requests for a service.
type Listener struct {
	rt  *Runtime
	lis *verbs.Listener
}

// Listen binds a UCR service name on this runtime's node.
func (rt *Runtime) Listen(service string) (*Listener, error) {
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
