package cluster

import (
	"fmt"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/ring"
	"repro/internal/simnet"
)

// Fleet layers churn-capable membership and R-way replication over a
// Deployment: the O(1000)-server / O(10k)-client tier the ROADMAP's
// "millions of users" north star needs above PR 7's per-server fan-in
// work. Placement is the shared ketama ring (internal/ring); every
// fleet client routes each key to its R current owners (primary + ring
// successors), writes through to all of them in one round trip (every
// owner's request is posted before any reply is awaited), and falls
// through to the replica on a primary miss with an asynchronous-style
// read repair (store-if-absent, result ignored) patching the primary
// back up.
//
// Churn comes in three scripted flavors:
//
//	Join  — a fresh, empty server starts and takes over its arcs.
//	Leave — a member departs gracefully: unpublished first, closed after.
//	Crash — the member is partitioned from every client on every fabric
//	        (PR 2's FaultInjector) and then killed; in-flight requests
//	        either already made it or surface clean ErrServerDown after
//	        the RC retransmission budget burns down in virtual time.
//
// Membership, the ring and the churn counts are deployment state: each
// change is one block holding the deployment (Deployment.owned), and a
// client resolves its owners holding it too, so a client never routes to
// a member it can also observe as departed.

// FleetOptions configures NewFleet.
type FleetOptions struct {
	// Transport is the client transport (UCRIB or a socket transport the
	// profile offers).
	Transport Transport
	// Servers is the initial member count (minimum 2: R=2 needs a
	// distinct successor).
	Servers int
	// Replicas is the ownership factor R (default 2).
	Replicas int
	// Behaviors apply to every fleet client's transports.
	Behaviors mcclient.Behaviors
	// Seed is unread: the injector NewFleet installs when Opts.Faults is
	// nil drops nothing, so no verdict hashes a seed. It stays because
	// benchmark/run.go and benchmark/probes.go set it.
	Seed uint64
	// Opts is the underlying deployment configuration. Opts.Servers is
	// overridden by FleetOptions.Servers.
	Opts Options
}

// Fleet is a churn-capable server group over one Deployment.
type Fleet struct {
	D         *Deployment
	transport Transport
	behaviors mcclient.Behaviors
	replicas  int

	// Read and written holding the deployment (D.owned).
	ring        *ring.Ring
	members     map[string]int // live member → its index in D.ServerNodes and D.Servers
	clientNodes []*simnet.Node
	nextServer  int
	nextClient  int
	joins       int
	leaves      int
	crashes     int
}

// NewFleet builds a fleet of opts.Servers initial members.
func NewFleet(p *Profile, opts FleetOptions) (*Fleet, error) {
	if opts.Servers < 2 {
		opts.Servers = 2
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Transport == "" {
		opts.Transport = UCRIB
	}
	if opts.Opts.Faults == nil {
		// Drop-free injector: Crash's partitions need one installed even
		// when the run is otherwise lossless.
		opts.Opts.Faults = LossyFaults(0, 0)
	}
	opts.Opts.Servers = opts.Servers
	if !p.hasTransport(opts.Transport) {
		return nil, fmt.Errorf("cluster %s has no %s", p.name, opts.Transport)
	}
	if opts.Opts.SessionsPerQP > 1 {
		// A fleet client dials lazily, per owner; there is no group of
		// eagerly dialed clients for a trunk to concentrate.
		return nil, fmt.Errorf("fleet: SessionsPerQP is not supported (fleet clients dial per owner)")
	}
	d := New(p, opts.Opts)
	f := &Fleet{
		D:          d,
		transport:  opts.Transport,
		behaviors:  opts.Behaviors,
		replicas:   opts.Replicas,
		members:    make(map[string]int),
		nextServer: opts.Servers,
	}
	names := make([]string, len(d.ServerNodes))
	for i, node := range d.ServerNodes {
		names[i] = node.Name()
		f.members[names[i]] = i
	}
	f.ring = ring.Build(0, names) // the libmemcached layout, as mcclient and memcheck build it
	return f, nil
}

// Replicas reports the ownership factor R.
func (f *Fleet) Replicas() int { return f.replicas }

// Members lists live member names (sorted).
func (f *Fleet) Members() (names []string) {
	f.D.owned(func() { names = f.ring.Members() })
	return names
}

// RingSnapshot returns an independent copy of the current ring — the
// key-movement accounting input (compare snapshots across churn with
// Ring.MovedFraction).
func (f *Fleet) RingSnapshot() (r *ring.Ring) {
	f.D.owned(func() { r = f.ring.Clone() })
	return r
}

// Owners reports the R current owners of key, primary first.
func (f *Fleet) Owners(key string) []string { return f.appendOwners(nil, key) }

// appendOwners is Owners into the caller's buffer (ring.AppendOwners).
func (f *Fleet) appendOwners(dst []string, key string) []string {
	f.D.owned(func() { dst = f.ring.AppendOwners(dst, key, f.replicas) })
	return dst
}

// ChurnCounts reports how many joins/leaves/crashes have run (vacuity
// guards).
func (f *Fleet) ChurnCounts() (joins, leaves, crashes int) {
	f.D.owned(func() { joins, leaves, crashes = f.joins, f.leaves, f.crashes })
	return joins, leaves, crashes
}

// Join starts one fresh, empty server and publishes it on the ring, in
// one block holding the deployment: the server is fully reachable before
// any client can route to it. Returns the new member's name.
func (f *Fleet) Join() (name string) {
	f.D.owned(func() {
		name = fmt.Sprintf("server%d", f.nextServer)
		f.nextServer++
		f.members[name] = f.D.addServer(name)
		f.ring.AddServer(name)
		f.joins++
	})
	return name
}

// Leave removes a member gracefully: it is unpublished from the ring
// first (no new traffic routes to it), then shut down. No-op on an
// unknown name. Returns whether the member existed.
func (f *Fleet) Leave(name string) bool {
	var srv *memcached.Server
	f.D.owned(func() {
		if idx, ok := f.unpublish(name); ok {
			f.leaves++
			srv = f.D.Servers[idx]
		}
	})
	if srv == nil {
		return false
	}
	srv.Close() // takes the deployment itself
	return true
}

// Crash kills a member abruptly: every client node is partitioned from
// it on every fabric, the ring drops it, and the server process dies.
// In-flight requests settle with a value (already served) or clean
// ErrServerDown (RC retransmission budget exhausted in virtual time, or
// the closed endpoint failing the op locally). No-op on an unknown
// name. Returns whether the member existed.
func (f *Fleet) Crash(name string) bool {
	var srv *memcached.Server
	f.D.owned(func() {
		idx, ok := f.unpublish(name)
		if !ok {
			return
		}
		f.crashes++
		for _, fi := range f.D.injectors {
			for _, cn := range f.clientNodes {
				fi.Partition(cn, f.D.ServerNodes[idx])
			}
		}
		srv = f.D.Servers[idx]
	})
	if srv == nil {
		return false
	}
	srv.Close()
	return true
}

// unpublish takes a live member off the ring and reports its server
// index; the caller holds the deployment.
func (f *Fleet) unpublish(name string) (idx int, ok bool) {
	if idx, ok = f.members[name]; ok {
		delete(f.members, name)
		f.ring.RemoveServer(name)
	}
	return idx, ok
}

// member reports the server index of the live member named name.
func (f *Fleet) member(name string) (idx int, ok bool) {
	f.D.owned(func() { idx, ok = f.members[name] })
	return idx, ok
}

// FleetClientStats counts one client's replication-path events.
type FleetClientStats struct {
	Ops          uint64 // fleet-level operations issued
	PrimaryHits  uint64 // gets answered by the primary
	ReplicaHits  uint64 // gets answered by the replica after a primary miss
	Fallthroughs uint64 // primary misses/faults that consulted the replica
	Repairs      uint64 // read-repair store-if-absent attempts issued
	Downs        uint64 // transport ops that returned ErrServerDown
}

// FleetClient is one client actor: its own node, clock, and a lazy
// per-owner connection cache. Unlike Deployment.NewClient it never
// dials the whole fleet — at 1000 servers × 10k clients an eager mesh
// would be 10M RC endpoints; a fleet client only connects to servers
// that actually own one of its keys, through the same Deployment.dial
// (so the read paths Opts arms are armed here too). Not safe for
// concurrent use (one per goroutine, like mcclient.Client).
type FleetClient struct {
	f     *Fleet
	Clock *simnet.VClock

	seat  seat
	conns map[string]mcclient.Transport

	// ownerBuf is where owners resolves a key's owners: one op's owner
	// list at a time, overwritten by the next resolution. A write's
	// connections (connsFor) and per-owner outcomes sit beside it, R long.
	ownerBuf []string
	trBuf    []mcclient.Transport
	resBuf   []memcached.StoreResult
	foundBuf []bool
	errBuf   []error

	Stats FleetClientStats
}

// NewClient adds one fleet client, seated in one block holding the
// deployment.
func (f *Fleet) NewClient() (*FleetClient, error) {
	c := &FleetClient{
		f: f, Clock: simnet.NewVClock(0), conns: make(map[string]mcclient.Transport),
		trBuf:    make([]mcclient.Transport, 0, f.replicas),
		resBuf:   make([]memcached.StoreResult, f.replicas),
		foundBuf: make([]bool, f.replicas),
		errBuf:   make([]error, f.replicas),
	}
	f.D.owned(func() {
		f.nextClient++
		c.seat = f.D.attach(fmt.Sprintf("fclient%d", f.nextClient), f.transport)
		f.clientNodes = append(f.clientNodes, c.seat.node)
	})
	return c, nil
}

// owners resolves the key's R owners by the CURRENT ring into the
// client's scratch buffer: the result is valid until the next call.
func (c *FleetClient) owners(key string) []string {
	c.ownerBuf = c.f.appendOwners(c.ownerBuf[:0], key)
	return c.ownerBuf
}

// conn returns the (lazily dialed) transport for a member. Departed or
// unreachable members yield ErrServerDown.
func (c *FleetClient) conn(name string) (mcclient.Transport, error) {
	if tr, ok := c.conns[name]; ok {
		return tr, nil
	}
	idx, ok := c.f.member(name)
	if !ok {
		return nil, mcclient.ErrServerDown
	}
	tr, err := c.f.D.dial(c.seat, idx, c.f.behaviors, c.Clock)
	if err != nil {
		// Dial raced a crash/partition; surface it like any dead server.
		return nil, mcclient.ErrServerDown
	}
	c.conns[name] = tr
	return tr, nil
}

// dropConn forgets a cached transport after it reported the server
// down, so a later re-join of the same slot re-dials.
func (c *FleetClient) dropConn(name string) {
	if tr, ok := c.conns[name]; ok {
		tr.Close()
		delete(c.conns, name)
	}
}

// on runs op against one owner's connection under the client's retry
// policy (the first attempt, then finish).
func (c *FleetClient) on(owner string, op func(tr mcclient.Transport) error) error {
	tr, err := c.conn(owner)
	if err == nil {
		err = op(tr)
	}
	return c.finish(owner, tr, err, op)
}

// finish takes one owner's op past its first attempt, which returned
// err: an owner that answered ErrServerDown gets the rest of the retry
// budget. A dead owner — no live member (tr is nil), a failed dial, or
// ErrServerDown after the retries — is counted and its cached connection
// dropped, so a later re-join of the same slot re-dials.
func (c *FleetClient) finish(owner string, tr mcclient.Transport, err error, op func(tr mcclient.Transport) error) error {
	if tr != nil {
		err = c.f.behaviors.RetryAfter(c.Clock, err, func() error { return op(tr) })
	}
	if err == mcclient.ErrServerDown {
		c.Stats.Downs++
		c.dropConn(owner)
	}
	return err
}

// connsFor resolves the owners' connections into the client's buffer, a
// nil transport for an owner that cannot be reached; valid until the
// next call.
func (c *FleetClient) connsFor(owners []string) []mcclient.Transport {
	c.trBuf = c.trBuf[:0]
	for _, o := range owners {
		tr, _ := c.conn(o)
		c.trBuf = append(c.trBuf, tr)
	}
	return c.trBuf
}

// Set writes through to all R owners with one round trip: a set is
// started on every owner's transport window before any is waited on
// (mcclient.SetAll), then each owner that answered ErrServerDown runs
// the rest of its retry budget, primary first. The error is the first
// owner's, in ring order, that did not store — its transport error, or its StoreResult as
// mcclient.Client.Set reports it — so a replica outage never blocks the
// primary write (and vice versa).
func (c *FleetClient) Set(key string, value []byte, flags uint32, exptime int64) error {
	if err := mcclient.CheckKey(key); err != nil {
		return err
	}
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return mcclient.ErrNoServers
	}
	trs, res, errs := c.connsFor(owners), c.resBuf[:len(owners)], c.errBuf[:len(owners)]
	mcclient.SetAll(c.Clock, trs, key, flags, exptime, value, res, errs)
	var firstErr error
	for i, o := range owners {
		err := c.finish(o, trs[i], errs[i], func(tr mcclient.Transport) (e error) {
			res[i], e = tr.Set(c.Clock, key, flags, exptime, value)
			return e
		})
		if err == nil {
			err = mcclient.StoreErr(memcached.StoreOpSet, res[i])
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get reads the key: primary first; a miss (or dead primary) falls
// through to the replica (fallthroughGet).
func (c *FleetClient) Get(key string) (value []byte, flags uint32, err error) {
	if err := mcclient.CheckKey(key); err != nil {
		return nil, 0, err
	}
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return nil, 0, mcclient.ErrNoServers
	}
	v, fl, hit, perr := c.getFrom(owners[0], key)
	if perr == nil && hit {
		c.Stats.PrimaryHits++
		return v, fl, nil
	}
	return c.fallthroughGet(owners, key, perr)
}

// getFrom runs one get against one owner.
func (c *FleetClient) getFrom(owner, key string) (value []byte, flags uint32, hit bool, err error) {
	err = c.on(owner, func(tr mcclient.Transport) error {
		var e error
		value, flags, _, hit, e = tr.Get(c.Clock, key)
		return e
	})
	return value, flags, hit, err
}

// Delete removes the key from all R owners with one round trip, retried
// per owner as Set is. Found if any owner had it.
func (c *FleetClient) Delete(key string) (bool, error) {
	if err := mcclient.CheckKey(key); err != nil {
		return false, err
	}
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return false, mcclient.ErrNoServers
	}
	trs, found, errs := c.connsFor(owners), c.foundBuf[:len(owners)], c.errBuf[:len(owners)]
	mcclient.DeleteAll(c.Clock, trs, key, found, errs)
	var anyFound bool
	var firstErr error
	for i, o := range owners {
		err := c.finish(o, trs[i], errs[i], func(tr mcclient.Transport) (e error) {
			found[i], e = tr.Delete(c.Clock, key)
			return e
		})
		anyFound = anyFound || (err == nil && found[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return anyFound, firstErr
}

// FleetGetResult is one key's outcome from GetBurst.
type FleetGetResult struct {
	value []byte
	Hit   bool
	Err   error
}

// GetBurst pipelines gets for a key batch: keys are grouped by primary
// owner, each group travels through one pipelined window, and primary
// misses/failures take the blocking replica fallthrough (with read
// repair) afterwards. Results align with keys; a key mcclient.CheckKey
// refuses gets its error and is never sent.
func (c *FleetClient) GetBurst(keys []string, window int) []FleetGetResult {
	out := make([]FleetGetResult, len(keys))
	groups := make(map[string][]int)
	var order []string
	for i, k := range keys {
		if err := mcclient.CheckKey(k); err != nil {
			out[i] = FleetGetResult{Err: err}
			continue
		}
		c.Stats.Ops++
		owners := c.owners(k)
		if len(owners) == 0 {
			out[i] = FleetGetResult{Err: mcclient.ErrNoServers}
			continue
		}
		p := owners[0]
		if _, seen := groups[p]; !seen {
			order = append(order, p)
		}
		groups[p] = append(groups[p], i)
	}
	for _, primary := range order {
		idxs := groups[primary]
		tr, err := c.conn(primary)
		switch {
		case err != nil:
			// Dead primary: every key takes the fallthrough path below.
			c.Stats.Downs++
			for _, i := range idxs {
				out[i] = FleetGetResult{Err: mcclient.ErrServerDown}
			}
		default:
			// Every transport dial returns is a Pipeliner.
			p := tr.(mcclient.Pipeliner).Pipeline(window)
			futs := make([]*mcclient.GetFuture, len(idxs))
			for j, i := range idxs {
				futs[j] = p.StartGet(c.Clock, keys[i])
			}
			// Wait settles every future even if the server dies mid-burst
			// (already-served replies keep their values; the rest fail
			// with ErrServerDown).
			_ = p.Wait(c.Clock)
			down := false
			for j, i := range idxs {
				v, _, _, ok, e := futs[j].Wait(c.Clock)
				out[i] = FleetGetResult{value: v, Hit: ok, Err: e}
				if e == mcclient.ErrServerDown {
					c.Stats.Downs++
					down = true
				}
			}
			if down {
				c.dropConn(primary)
			}
		}
		// Fallthrough pass: primary miss or failure consults the replica
		// via the blocking path (which also repairs).
		for _, i := range idxs {
			if out[i].Err == nil && out[i].Hit {
				c.Stats.PrimaryHits++
				continue
			}
			v, _, e := c.fallthroughGet(c.owners(keys[i]), keys[i], out[i].Err)
			if e == nil {
				out[i] = FleetGetResult{value: v, Hit: true}
			} else {
				out[i] = FleetGetResult{Err: e}
			}
		}
	}
	return out
}

// fallthroughGet consults the replica after a primary miss/failure
// (perr is the primary's error, nil for a plain miss). A replica hit on
// a live primary triggers an asynchronous-style read repair — a
// store-if-absent on the primary whose outcome is ignored, so it can
// neither change the returned value nor clobber a newer concurrent
// write.
func (c *FleetClient) fallthroughGet(owners []string, key string, perr error) (value []byte, flags uint32, err error) {
	if len(owners) < 2 {
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, mcclient.ErrCacheMiss
	}
	c.Stats.Fallthroughs++
	rv, rfl, rhit, rerr := c.getFrom(owners[1], key)
	if rerr != nil || !rhit {
		if perr != nil {
			return nil, 0, perr
		}
		if rerr != nil {
			return nil, 0, rerr
		}
		return nil, 0, mcclient.ErrCacheMiss
	}
	c.Stats.ReplicaHits++
	if perr == nil {
		c.Stats.Repairs++
		_ = c.on(owners[0], func(tr mcclient.Transport) error {
			_, e := tr.StoreOp(c.Clock, memcached.StoreOpAdd, key, rfl, 0, rv, 0)
			return e
		})
	}
	return rv, rfl, nil
}

// DirectGet reads a key from one named member, bypassing the ring —
// the memcheck fleet epilogue probes every live server's actual
// holdings this way to compare against the per-server reference model.
func (c *FleetClient) DirectGet(server, key string) (value []byte, hit bool, err error) {
	value, _, hit, err = c.getFrom(server, key)
	return value, hit, err
}

// Close tears the client's connections down.
func (c *FleetClient) Close() {
	for _, tr := range c.conns {
		tr.Close()
	}
	c.conns = nil
	if c.seat.ctx != nil {
		destroy(c.seat.ctx)
	}
}

// Close shuts every live member down.
func (f *Fleet) Close() {
	var srvs []*memcached.Server
	f.D.owned(func() {
		for name, idx := range f.members {
			srvs = append(srvs, f.D.Servers[idx])
			delete(f.members, name)
		}
	})
	for _, srv := range srvs {
		srv.Close()
	}
}
