package mcclient

import (
	"slices"

	"repro/internal/simnet"
)

// Server failover: with Behaviors.AutoEject set (libmemcached's
// AUTO_EJECT_HOSTS), a server whose transport reports ErrServerDown
// leaves the ring and only its arcs move to the survivors — the
// "corrective action" the paper's §IV-A timeout design exists to enable.

// eject removes server idx from the ring. RemoveServer filters the
// server's points out in one pass, and removing a server already gone
// does nothing.
func (c *Client) eject(idx int) {
	c.ring.RemoveServer(c.servers[idx].Name())
}

// Ejected reports which servers have been ejected: those whose names
// have left the ring.
func (c *Client) Ejected() []int {
	live := c.ring.Members()
	var out []int
	for i, s := range c.servers {
		if !slices.Contains(live, s.Name()) {
			out = append(out, i)
		}
	}
	return out
}

// LiveServers reports how many servers remain in the pool.
func (c *Client) LiveServers() int {
	return c.ring.Size()
}

// retry runs op, retrying ErrServerDown failures up to b.Retries times
// with exponential virtual-time backoff charged to clk. A transient
// fault (lossy fabric, momentary partition) heals inside the backoff
// window and the server stays in the pool; only a persistently dead
// server escapes to the caller's eject or failover path.
func (b Behaviors) retry(clk *simnet.VClock, op func() error) error {
	return b.RetryAfter(clk, op(), op)
}

// RetryAfter is Retry for an op whose first attempt has already run and
// returned err — a write SetAll or DeleteAll posted beside the others:
// the op gets the rest of the budget, with the same backoff, so it still
// runs at most 1 + b.Retries times in all.
func (b Behaviors) RetryAfter(clk *simnet.VClock, err error, op func() error) error {
	if err != ErrServerDown || b.Retries <= 0 {
		return err
	}
	backoff := b.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * simnet.Microsecond
	}
	for r := 0; r < b.Retries && err == ErrServerDown; r++ {
		clk.Advance(backoff)
		backoff *= 2
		err = op()
	}
	return err
}

// withTransport runs op against the key's server, with bounded
// retry+backoff on the owner, then ejecting and re-hashing on
// ErrServerDown when AutoEject is enabled. Each eject retry targets the
// key's new owner; the loop is bounded by the pool size.
func (c *Client) withTransport(key string, op func(Transport) error) error {
	for attempt := 0; attempt <= len(c.servers); attempt++ {
		idx := c.ServerFor(key)
		if idx < 0 {
			return ErrNoServers
		}
		t := c.servers[idx]
		err := c.behaviors.retry(c.clk, func() error { return op(t) })
		if err == ErrServerDown && c.behaviors.AutoEject {
			c.eject(idx)
			continue
		}
		return err
	}
	return ErrServerDown
}
