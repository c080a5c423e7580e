package mcclient

import "repro/internal/simnet"

// Server failover: with Behaviors.AutoEject set (libmemcached's
// AUTO_EJECT_HOSTS), a server whose transport reports ErrServerDown is
// removed from the pool and the keyspace re-hashes over the survivors —
// the "corrective action" the paper's §IV-A timeout design exists to
// enable. With ketama distribution only the dead server's arc moves.
//
// All pool state (dead, liveIdx, ring) is guarded by c.failMu: the
// operating actor mutates it during ejection while monitoring
// goroutines read it concurrently.

// eject marks server idx dead and rebuilds the live mapping. The ketama
// ring is updated incrementally — RemoveServer filters the dead
// server's points out in one pass instead of re-hashing and re-sorting
// the whole ring, so ejection cost no longer scales with pool size.
func (c *Client) eject(idx int) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.dead == nil {
		c.dead = make([]bool, len(c.servers))
	}
	if c.dead[idx] {
		return
	}
	c.dead[idx] = true
	c.liveIdx = c.liveIdx[:0]
	for i := range c.servers {
		if !c.dead[i] {
			c.liveIdx = append(c.liveIdx, i)
		}
	}
	if c.ring != nil {
		c.ring.RemoveServer(c.servers[idx].Name())
	}
}

// Ejected reports which servers have been ejected.
func (c *Client) Ejected() []int {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	var out []int
	for i, d := range c.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// LiveServers reports how many servers remain in the pool.
func (c *Client) LiveServers() int {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.liveIdx == nil {
		return len(c.servers)
	}
	return len(c.liveIdx)
}

// liveServerFor maps a key to a live server index, or -1 if the pool is
// empty. For ketama the ring already holds only live members (eject
// removes them), so one lookup resolves the owner; modula hashes over
// the live index list.
func (c *Client) liveServerFor(key string) int {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.ring != nil {
		owner := c.ring.Lookup(key)
		if owner == "" {
			return -1
		}
		return c.byName[owner]
	}
	if c.liveIdx == nil {
		// No ejections yet: the full pool is live.
		return int(keyHash(key) % uint64(len(c.servers)))
	}
	if len(c.liveIdx) == 0 {
		return -1
	}
	return c.liveIdx[int(keyHash(key)%uint64(len(c.liveIdx)))]
}

// Retry runs op, retrying ErrServerDown failures up to b.Retries times
// with exponential virtual-time backoff charged to clk. A transient
// fault (lossy fabric, momentary partition) heals inside the backoff
// window and the server stays in the pool; only a persistently dead
// server escapes to the caller's eject or failover path.
func (b Behaviors) Retry(clk *simnet.VClock, op func() error) error {
	err := op()
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
		idx := c.liveServerFor(key)
		if idx < 0 {
			return ErrNoServers
		}
		t := c.servers[idx]
		err := c.behaviors.Retry(c.clk, func() error { return op(t) })
		if err == ErrServerDown && c.behaviors.AutoEject {
			c.eject(idx)
			continue
		}
		return err
	}
	return ErrServerDown
}
