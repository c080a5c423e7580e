package mcclient

import (
	"fmt"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// SessionMux is the connection concentrator: logical client sessions
// sharing one RC queue pair (one UCRTransport, the trunk). The paper
// names RC's per-connection resources as the client-count limit; k
// sessions divide that footprint by k and share one wire and one
// progress context. A session is the trunk's transport: each of its
// calls is the trunk's, which holds the deployment for the whole
// operation (simnet.Executor.Enter) — there is no second op driver and
// no lock of the mux's own, so it is served by every read path the
// trunk armed, and retries, re-issues and fails as a plain client does.
// Sessions driven from different goroutines run their operations one
// after another.
type SessionMux struct {
	t *UCRTransport
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

// Close tears down the shared transport, once every session is quiescent.
func (m *SessionMux) Close() { m.t.Close() }

// Session is one multiplexed logical client over the shared QP: a
// Transport whose methods forward to the trunk's.
type Session struct {
	mux  *SessionMux
	name string
}

func (s *Session) Name() string { return s.name }

// Close is a no-op: the QP stays up for the siblings (see SessionMux.Close).
func (s *Session) Close() {}

func (s *Session) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	return s.mux.t.Set(clk, key, flags, exptime, value)
}

func (s *Session) StoreOp(clk *simnet.VClock, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64) (memcached.StoreResult, error) {
	return s.mux.t.StoreOp(clk, op, key, flags, exptime, value, casID)
}

func (s *Session) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	return s.mux.t.Get(clk, key)
}

func (s *Session) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	return s.mux.t.GetMulti(clk, keys)
}

func (s *Session) Delete(clk *simnet.VClock, key string) (bool, error) {
	return s.mux.t.Delete(clk, key)
}

func (s *Session) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	return s.mux.t.IncrDecr(clk, key, delta, incr)
}
