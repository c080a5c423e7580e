package mcclient

import (
	"fmt"
	"sync"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// SessionMux is the connection concentrator: k logical client sessions
// multiplexed over one RC queue pair (one UCRTransport). The paper
// names RC's dedicated per-connection resources as the client-count
// scaling limit; concentrating sessions divides that footprint by k at
// the cost of sharing one wire and one progress context.
//
// Every session's requests ride the shared transport's tagged reply
// slots — the per-request counter id is the session's demultiplex key,
// so replies land in the issuing session's op no matter how sessions
// interleave on the QP. Sessions may be driven from different
// goroutines: a mutex serializes every touch of the shared transport,
// released between progress steps so one session waiting for its reply
// never starves the others. FIFO per session holds because each session
// issues at most one op at a time and blocks for it; the interleaving
// across sessions on the shared QP is invisible to each session's
// program order.
type SessionMux struct {
	mu sync.Mutex
	t  *UCRTransport
	n  int
}

// NewSessionMux concentrates k sessions over t. The caller must not use
// t directly afterwards (sessions own its slot table).
func NewSessionMux(t *UCRTransport, k int) *SessionMux {
	if k < 1 {
		k = 1
	}
	return &SessionMux{t: t, n: k}
}

// Sessions reports the concentration factor k.
func (m *SessionMux) Sessions() int { return m.n }

// Transport exposes the shared trunk transport (stats, tests).
func (m *SessionMux) Transport() *UCRTransport { return m.t }

// Session returns the i'th logical session (0 ≤ i < k). Each session
// implements Transport and is safe to drive from its own goroutine.
func (m *SessionMux) Session(i int) *Session {
	return &Session{mux: m, id: i, name: fmt.Sprintf("%s#%d", m.t.Name(), i)}
}

// Close tears down the shared transport. Call once, after every session
// is quiescent.
func (m *SessionMux) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t.Close()
}

// Session is one multiplexed logical client over the shared QP.
type Session struct {
	mux  *SessionMux
	id   int
	name string
}

// ID reports the session index within its mux.
func (s *Session) ID() int { return s.id }

// Name implements Transport.
func (s *Session) Name() string { return s.name }

// Close implements Transport. Closing a session is a no-op — the shared
// QP stays up for its siblings; use SessionMux.Close to tear down.
func (s *Session) Close() {}

// doShared is the sessions' op driver, the lock-stepped counterpart of
// UCRTransport.do: it opens an op under the mux lock (build must create
// it with one of t's request builders), sends it, and waits for its
// counter with the lock released between progress steps — whichever
// session holds the lock drives the shared CQ, and a completion for any
// sibling lands in that sibling's slot before the lock is handed on. On
// success it returns with the lock HELD, so the caller reads the result
// undisturbed by late duplicates and then calls release; on failure the
// op is already retired.
func (m *SessionMux) doShared(clk *simnet.VClock, build func(t *UCRTransport) *amOp) (*amOp, error) {
	t := m.t
	m.mu.Lock()
	op := build(t)
	attempts := 1 + t.rt.Config().AMRetries
	per := t.perAttempt(attempts)
	for a := 0; a < attempts; a++ {
		if op.sendAM() != nil {
			return m.failed(op, false)
		}
		deadline := simnet.Never
		if per > 0 {
			deadline = clk.Now() + per
		}
		for {
			if op.ctr.Value() >= 1 {
				return op, nil
			}
			if op.ep.Failed() {
				return m.failed(op, false)
			}
			ok, timedOut := t.ctx.ProgressDeadline(clk, deadline)
			m.mu.Unlock()
			m.mu.Lock()
			if timedOut {
				break
			}
			if !ok {
				return m.failed(op, false)
			}
		}
	}
	return m.failed(op, true)
}

// failed retires op and drops the lock; exhausted (the retry budget ran
// out) also isolates the endpoint, as do does.
func (m *SessionMux) failed(op *amOp, exhausted bool) (*amOp, error) {
	if exhausted {
		op.ep.MarkFailed()
	}
	m.release(op)
	return nil, ErrServerDown
}

// release retires a settled op and drops the lock doShared returned with.
func (m *SessionMux) release(op *amOp) {
	m.t.finishOp(op)
	m.mu.Unlock()
}

// The Transport methods pair the transport's request builders and
// result readers with the doShared driver. Reads skip the UD rung: the
// lock-stepped driver has no blocking re-issue for a punted reply.

// Set implements Transport.
func (s *Session) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	op, err := s.mux.doShared(clk, func(t *UCRTransport) *amOp { return t.setOp(clk, key, flags, exptime, value) })
	if err != nil {
		return 0, err
	}
	defer s.mux.release(op)
	return op.stored(), nil
}

// Get implements Transport.
func (s *Session) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	op, err := s.mux.doShared(clk, func(t *UCRTransport) *amOp { return t.readOp(clk, key, nil, nil, false) })
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer s.mux.release(op)
	v, fl, cas, hit := s.mux.t.getResult(op, true)
	return v, fl, cas, hit, nil
}

// GetMulti implements Transport.
func (s *Session) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	m := s.mux
	return m.t.mgetAll(keys, nil, func(keys []string, _ []byte) (*amOp, error) {
		return m.doShared(clk, func(t *UCRTransport) *amOp { return t.readOp(clk, "", keys, nil, false) })
	}, m.release)
}

// Delete implements Transport.
func (s *Session) Delete(clk *simnet.VClock, key string) (bool, error) {
	op, err := s.mux.doShared(clk, func(t *UCRTransport) *amOp { return t.deleteOp(clk, key) })
	if err != nil {
		return false, err
	}
	defer s.mux.release(op)
	return op.deleted(), nil
}

// IncrDecr implements Transport.
func (s *Session) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	op, err := s.mux.doShared(clk, func(t *UCRTransport) *amOp { return t.numOp(clk, key, delta, incr) })
	if err != nil {
		return 0, false, false, err
	}
	defer s.mux.release(op)
	return op.number()
}

// interface conformance
var _ Transport = (*Session)(nil)
