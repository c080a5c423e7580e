// Package mcclient is the client library — the role libmemcached 0.45
// plays in the paper (§V): a server pool, key→server selection by
// hashing (no central directory, §II-C), client behaviours, and the
// full operation set, over either the text protocol on sockets or the
// UCR active-message protocol.
package mcclient

import (
	"errors"
	"fmt"

	"repro/internal/memcached"
	"repro/internal/ring"
	"repro/internal/simnet"
)

// Client errors.
var (
	ErrCacheMiss  = errors.New("mcclient: cache miss")
	ErrNoServers  = errors.New("mcclient: no servers configured")
	ErrNotStored  = errors.New("mcclient: item not stored")
	ErrCASExists  = errors.New("mcclient: CAS id mismatch")
	ErrBadValue   = errors.New("mcclient: non-numeric value for incr/decr")
	ErrServerDown = errors.New("mcclient: server unreachable")
	// ErrServerError is a server-side failure distinct from a miss or a
	// caller mistake (e.g. SERVER_ERROR out of memory growing a value).
	ErrServerError = errors.New("mcclient: server error")
	// ErrBadKey rejects a key the text protocol cannot carry: empty,
	// longer than 250 bytes, or containing whitespace/control bytes.
	// Validated client-side (like libmemcached's VERIFY_KEY) because a
	// bad key would desync the connection, not just fail one op.
	ErrBadKey = errors.New("mcclient: invalid key")
)

// storeError is a store the server could not make room for (TooLarge,
// OOM). It wraps ErrServerError, so errors.Is classifies it and
// errors.As recovers the result.
type storeError struct {
	op  uint8 // memcached.StoreOp*
	res memcached.StoreResult
}

func (e *storeError) Error() string {
	return fmt.Sprintf("%s: %s failed: %s", ErrServerError, memcached.StoreVerb(e.op), e.res)
}

func (e *storeError) Unwrap() error { return ErrServerError }

// StoreErr is every store verb's one result→error mapping; StoreResultOf
// inverts it.
func StoreErr(op uint8, res memcached.StoreResult) error {
	switch res {
	case memcached.Stored:
		return nil
	case memcached.Exists:
		return ErrCASExists
	case memcached.NotStored:
		return ErrNotStored
	case memcached.NotFound:
		return ErrCacheMiss
	}
	return &storeError{op: op, res: res}
}

// StoreResultOf recovers the result a store call's error carries; ok is
// false for an error that carries none (a transport failure, a bad key).
func StoreResultOf(err error) (res memcached.StoreResult, ok bool) {
	var se *storeError
	switch {
	case err == nil:
		return memcached.Stored, true
	case errors.Is(err, ErrCASExists):
		return memcached.Exists, true
	case errors.Is(err, ErrNotStored):
		return memcached.NotStored, true
	case errors.Is(err, ErrCacheMiss):
		return memcached.NotFound, true
	case errors.As(err, &se):
		return se.res, true
	}
	return 0, false
}

// CheckKey enforces the protocol's key rules: ErrBadKey for a key the
// text protocol cannot carry. Every client that routes a key checks it
// with this one rule before any server sees it.
func CheckKey(key string) error {
	if len(key) == 0 || len(key) > 250 {
		return ErrBadKey
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return ErrBadKey
		}
	}
	return nil
}

// Behaviors mirrors memcached_behavior_set knobs used in the paper. The
// evaluation's TCP_NODELAY (§VI) is not one: socket transports always
// set it.
type Behaviors struct {
	// OpTimeout bounds each operation in virtual time (0: none); on
	// expiry the operation returns ErrServerDown, letting the caller
	// take corrective action (§IV-A).
	OpTimeout simnet.Duration
	// AutoEject removes a server from the pool when an operation
	// reports it unreachable; only its arcs of the ring move, to the
	// survivors (libmemcached's AUTO_EJECT_HOSTS).
	AutoEject bool
	// Retries is how many times an operation that fails with
	// ErrServerDown is retried against the same owner (with exponential
	// backoff) before failover/auto-eject kicks in. Zero disables
	// retrying (libmemcached's MEMCACHED_BEHAVIOR_RETRY_TIMEOUT spirit:
	// transient faults shouldn't eject a healthy server).
	Retries int
	// RetryBackoff is the first retry's virtual-time backoff; it
	// doubles per attempt. Zero gets a 100 µs default when Retries > 0.
	RetryBackoff simnet.Duration
}

// DefaultBehaviors returns the paper's client configuration.
func DefaultBehaviors() Behaviors {
	return Behaviors{}
}

// Transport is one server connection, in either protocol.
type Transport interface {
	// Name identifies the server for diagnostics.
	Name() string
	// Set stores key=value.
	Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error)
	// StoreOp carries the conditional storage commands (add, replace,
	// append, prepend, cas): op is one of memcached.StoreOp*; casID is
	// only meaningful for StoreOpCas.
	StoreOp(clk *simnet.VClock, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64) (memcached.StoreResult, error)
	// Get fetches key. ok=false is a miss.
	Get(clk *simnet.VClock, key string) (value []byte, flags uint32, cas uint64, ok bool, err error)
	// GetMulti fetches a key batch in one round trip (text-protocol
	// multi-key get, or the UCR mget AM). Missing keys are absent from
	// the result.
	GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error)
	// Delete removes key. ok=false is a miss.
	Delete(clk *simnet.VClock, key string) (ok bool, err error)
	// IncrDecr adjusts a numeric value.
	IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (val uint64, found, bad bool, err error)
	// Close releases the connection.
	Close()
}

// Client is a memcached client handle bound to one actor (one virtual
// clock). It is not safe for concurrent use, its pool readers (ServerFor,
// Ejected, LiveServers) included — create one per goroutine, as with
// memcached_st in libmemcached.
type Client struct {
	behaviors Behaviors
	servers   []Transport
	clk       *simnet.VClock

	// Failover state (see failover.go).
	ring   *ring.Ring     // the live pool: ejection removes a member
	byName map[string]int // server name → index, for ring owner lookups
}

// New builds a client over the given server transports, placing keys on
// a ketama ring of their names. A name that appears twice is refused:
// the ring would hold it once and one of the two servers would get no
// keys.
func New(clk *simnet.VClock, behaviors Behaviors, servers []Transport) (*Client, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	c := &Client{behaviors: behaviors, servers: servers, clk: clk,
		byName: make(map[string]int, len(servers))}
	names := make([]string, len(servers))
	for i, s := range servers {
		name := s.Name()
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("mcclient: server %q appears twice in the pool", name)
		}
		c.byName[name] = i
		names[i] = name
	}
	c.ring = ring.Build(0, names)
	return c, nil
}

// Transport exposes server i's connection — for pipelined access
// (assert to Pipeliner) and diagnostics. Panics on a bad index.
func (c *Client) Transport(i int) Transport { return c.servers[i] }

// ServerFor reports which live server index a key maps to (§II-C: the
// destination is computed client-side with a hash on the key; ejected
// servers have left the ring, so one lookup resolves the owner). -1
// means the pool is empty.
func (c *Client) ServerFor(key string) int {
	owner := c.ring.Lookup(key)
	if owner == "" {
		return -1
	}
	return c.byName[owner]
}

// Set stores key=value with the given flags and expiry (seconds).
func (c *Client) Set(key string, value []byte, flags uint32, exptime int64) error {
	if err := CheckKey(key); err != nil {
		return err
	}
	var res memcached.StoreResult
	err := c.withTransport(key, func(t Transport) error {
		var err error
		res, err = t.Set(c.clk, key, flags, exptime, value)
		return err
	})
	if err != nil {
		return err
	}
	return StoreErr(memcached.StoreOpSet, res)
}

// Get fetches the value for key.
func (c *Client) Get(key string) (value []byte, flags uint32, cas uint64, err error) {
	if err := CheckKey(key); err != nil {
		return nil, 0, 0, err
	}
	var ok bool
	err = c.withTransport(key, func(t Transport) error {
		var err error
		value, flags, cas, ok, err = t.Get(c.clk, key)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if !ok {
		return nil, 0, 0, ErrCacheMiss
	}
	return value, flags, cas, nil
}

// GetMulti fetches several keys (libmemcached's mget): keys are grouped
// by owning server and each group travels as one batched request — a
// single multi-key get line over sockets, a single mget active message
// over UCR. Groups go out in the order their first key appears in keys,
// so what a failure leaves in out — and the clock — is a function of
// the call.
func (c *Client) GetMulti(keys []string) (map[string][]byte, error) {
	var order []int
	groups := make(map[int][]string)
	for _, key := range keys {
		if err := CheckKey(key); err != nil {
			return nil, err
		}
		idx := c.ServerFor(key)
		if _, seen := groups[idx]; !seen {
			order = append(order, idx)
		}
		groups[idx] = append(groups[idx], key)
	}
	out := make(map[string][]byte, len(keys))
	for _, idx := range order {
		group := groups[idx]
		if idx < 0 {
			return out, ErrNoServers
		}
		var part map[string][]byte
		t := c.servers[idx]
		err := c.behaviors.retry(c.clk, func() (err error) {
			part, err = t.GetMulti(c.clk, group)
			return err
		})
		if err == ErrServerDown && c.behaviors.AutoEject {
			// Eject and refetch this group via the new owners.
			c.eject(idx)
			part, err = c.GetMulti(group)
		}
		if err != nil {
			return out, err
		}
		for k, v := range part {
			out[k] = v
		}
	}
	return out, nil
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	if err := CheckKey(key); err != nil {
		return err
	}
	var ok bool
	err := c.withTransport(key, func(t Transport) error {
		var err error
		ok, err = t.Delete(c.clk, key)
		return err
	})
	if err != nil {
		return err
	}
	if !ok {
		return ErrCacheMiss
	}
	return nil
}

// Incr adds delta to a numeric value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) {
	return c.incrDecr(key, delta, true)
}

// Decr subtracts delta from a numeric value (floored at zero).
func (c *Client) Decr(key string, delta uint64) (uint64, error) {
	return c.incrDecr(key, delta, false)
}

func (c *Client) incrDecr(key string, delta uint64, incr bool) (uint64, error) {
	if err := CheckKey(key); err != nil {
		return 0, err
	}
	var val uint64
	var found, bad bool
	err := c.withTransport(key, func(t Transport) error {
		var err error
		val, found, bad, err = t.IncrDecr(c.clk, key, delta, incr)
		return err
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, ErrCacheMiss
	}
	if bad {
		return 0, ErrBadValue
	}
	return val, nil
}

// Close releases all server connections.
func (c *Client) Close() {
	for _, s := range c.servers {
		s.Close()
	}
}
