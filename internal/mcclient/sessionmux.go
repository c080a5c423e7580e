package mcclient

import (
	"fmt"
	"sync"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// SessionMux is the connection concentrator: logical client sessions
// sharing one RC queue pair (one UCRTransport, the trunk). The paper
// names RC's per-connection resources as the client-count limit; k
// sessions divide that footprint by k and share one wire and one
// progress context. A session is the trunk's transport behind the mux's
// lock, held for the whole operation — there is no second op driver, so
// it is served by every read path the trunk armed, and retries, re-issues
// and fails as a plain client does. Sessions driven from different
// goroutines run their operations one after another.
type SessionMux struct {
	mu sync.Mutex
	t  *UCRTransport
}

// NewSessionMux concentrates sessions over t, which the caller must not
// use directly afterwards.
func NewSessionMux(t *UCRTransport) *SessionMux { return &SessionMux{t: t} }

// Transport exposes the shared trunk transport (stats, tests).
func (m *SessionMux) Transport() *UCRTransport { return m.t }

// Session returns the i'th logical session, drivable from its own goroutine.
func (m *SessionMux) Session(i int) *Session {
	return &Session{mux: m, name: fmt.Sprintf("%s#%d", m.t.Name(), i)}
}

// lock takes the mux for one whole operation: `defer m.lock()()`.
func (m *SessionMux) lock() (unlock func()) { m.mu.Lock(); return m.mu.Unlock }

// Close tears down the shared transport, once every session is quiescent.
func (m *SessionMux) Close() { defer m.lock()(); m.t.Close() }

// Session is one multiplexed logical client over the shared QP: a
// Transport whose methods are the trunk's, called under the mux's lock.
type Session struct {
	mux  *SessionMux
	name string
	last ReadPath // path that served this session's latest Get
}

func (s *Session) Name() string { return s.name }

// Close is a no-op: the QP stays up for the siblings (see SessionMux.Close).
func (s *Session) Close() {}

func (s *Session) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	defer s.mux.lock()()
	return s.mux.t.Set(clk, key, flags, exptime, value)
}

func (s *Session) StoreOp(clk *simnet.VClock, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64) (memcached.StoreResult, error) {
	defer s.mux.lock()()
	return s.mux.t.StoreOp(clk, op, key, flags, exptime, value, casID)
}

// Get notes the path that served it while the lock is still held, so
// LastReadPath (the observer's probe) is this call's, never a sibling's.
func (s *Session) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	defer s.mux.lock()()
	v, fl, cas, hit, err := s.mux.t.Get(clk, key)
	s.last = s.mux.t.LastReadPath()
	return v, fl, cas, hit, err
}

func (s *Session) LastReadPath() ReadPath { return s.last }

func (s *Session) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	defer s.mux.lock()()
	return s.mux.t.GetMulti(clk, keys)
}

func (s *Session) Delete(clk *simnet.VClock, key string) (bool, error) {
	defer s.mux.lock()()
	return s.mux.t.Delete(clk, key)
}

func (s *Session) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	defer s.mux.lock()()
	return s.mux.t.IncrDecr(clk, key, delta, incr)
}
