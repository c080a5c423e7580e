package cluster

import (
	"fmt"
	"sync"

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
// successors), writes through to all of them, and falls through to the
// replica on a primary miss with an asynchronous-style read repair
// (store-if-absent, result ignored) patching the primary back up.
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
// The ring update is atomic under f.mu in all three cases, so a client
// never routes to a member it can also observe as departed.

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
	// Seed seeds the drop-free fault injectors installed when Opts.Faults
	// is nil (Crash needs injectors for its partitions even in clean
	// runs).
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

	mu          sync.Mutex
	ring        *ring.Ring
	members     map[string]*fleetMember
	clientNodes []*simnet.Node
	nextServer  int
	nextClient  int
	joins       int
	leaves      int
	crashes     int
}

type fleetMember struct {
	name string
	idx  int // Deployment server index (fixed; slots are never reused)
	node *simnet.Node
	srv  *memcached.Server
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
		opts.Opts.Faults = LossyFaults(0, opts.Seed)
	}
	opts.Opts.Servers = opts.Servers
	if !p.HasTransport(opts.Transport) {
		return nil, fmt.Errorf("cluster %s has no %s", p.Name, opts.Transport)
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
		ring:       ring.New(0), // the libmemcached layout, as mcclient and memcheck build it
		members:    make(map[string]*fleetMember),
		nextServer: opts.Servers,
	}
	for i, node := range d.ServerNodes {
		name := node.Name()
		f.members[name] = &fleetMember{name: name, idx: i, node: node, srv: d.Servers[i]}
		f.ring.AddServer(name)
	}
	return f, nil
}

// Replicas reports the ownership factor R.
func (f *Fleet) Replicas() int { return f.replicas }

// Size reports the live member count.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Members lists live member names (sorted).
func (f *Fleet) Members() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Members()
}

// RingSnapshot returns an independent copy of the current ring — the
// key-movement accounting input (compare snapshots across churn with
// Ring.MovedFraction).
func (f *Fleet) RingSnapshot() *ring.Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Clone()
}

// Owners reports the R current owners of key, primary first.
func (f *Fleet) Owners(key string) []string { return f.appendOwners(nil, key) }

// appendOwners is Owners into the caller's buffer (ring.AppendOwners).
func (f *Fleet) appendOwners(dst []string, key string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.AppendOwners(dst, key, f.replicas)
}

// ChurnCounts reports how many joins/leaves/crashes have run (vacuity
// guards).
func (f *Fleet) ChurnCounts() (joins, leaves, crashes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.joins, f.leaves, f.crashes
}

// Join starts one fresh, empty server and publishes it on the ring. The
// server is fully reachable before any client can route to it. Returns
// the new member's name.
func (f *Fleet) Join() string {
	f.mu.Lock()
	name := fmt.Sprintf("server%d", f.nextServer)
	f.nextServer++
	f.mu.Unlock()

	// Bring the server up outside f.mu: AddServer synchronizes on the
	// deployment and the network, and holding f.mu across it would stall
	// every concurrent routing decision.
	idx := f.D.AddServer(name)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[name] = &fleetMember{name: name, idx: idx, node: f.D.ServerNodes[idx], srv: f.D.Servers[idx]}
	f.ring.AddServer(name)
	f.joins++
	return name
}

// Leave removes a member gracefully: it is unpublished from the ring
// first (no new traffic routes to it), then shut down. No-op on an
// unknown name. Returns whether the member existed.
func (f *Fleet) Leave(name string) bool {
	f.mu.Lock()
	m, ok := f.members[name]
	if !ok {
		f.mu.Unlock()
		return false
	}
	delete(f.members, name)
	f.ring.RemoveServer(name)
	f.leaves++
	f.mu.Unlock()

	m.srv.Close()
	return true
}

// Crash kills a member abruptly: every client node is partitioned from
// it on every fabric, the ring drops it, and the server process dies.
// In-flight requests settle with a value (already served) or clean
// ErrServerDown (RC retransmission budget exhausted in virtual time, or
// the closed endpoint failing the op locally). No-op on an unknown
// name. Returns whether the member existed.
func (f *Fleet) Crash(name string) bool {
	f.mu.Lock()
	m, ok := f.members[name]
	if !ok {
		f.mu.Unlock()
		return false
	}
	delete(f.members, name)
	f.ring.RemoveServer(name)
	f.crashes++
	clients := append([]*simnet.Node(nil), f.clientNodes...)
	f.mu.Unlock()

	for _, fi := range f.D.Injectors {
		for _, cn := range clients {
			fi.Partition(cn, m.node)
		}
	}
	m.srv.Close()
	return true
}

// member returns the live member named name, or nil.
func (f *Fleet) member(name string) *fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[name]
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
	Node  *simnet.Node
	Clock *simnet.VClock

	seat  seat
	conns map[string]mcclient.Transport

	// ownerBuf is where owners resolves a key's owners: one op's owner
	// list at a time, overwritten by the next resolution.
	ownerBuf []string

	// staleRing is the construction-time snapshot MutRingStale routes
	// by; nil in correct builds.
	staleRing *ring.Ring

	Stats FleetClientStats
}

// NewClient adds one fleet client.
func (f *Fleet) NewClient() (*FleetClient, error) {
	f.mu.Lock()
	f.nextClient++
	n := f.nextClient
	f.mu.Unlock()

	s := f.D.attach(fmt.Sprintf("fclient%d", n), f.transport)
	c := &FleetClient{f: f, Node: s.node, Clock: simnet.NewVClock(0), seat: s, conns: make(map[string]mcclient.Transport)}
	if ring.MutRingStale {
		c.staleRing = f.RingSnapshot()
	}
	f.mu.Lock()
	f.clientNodes = append(f.clientNodes, s.node)
	f.mu.Unlock()
	return c, nil
}

// owners resolves the key's R owners by the CURRENT ring (or, under the
// seeded MutRingStale bug, the construction-time snapshot) into the
// client's scratch buffer: the result is valid until the next call.
func (c *FleetClient) owners(key string) []string {
	if c.staleRing != nil {
		c.ownerBuf = c.staleRing.AppendOwners(c.ownerBuf[:0], key, c.f.replicas)
	} else {
		c.ownerBuf = c.f.appendOwners(c.ownerBuf[:0], key)
	}
	return c.ownerBuf
}

// conn returns the (lazily dialed) transport for a member. Departed or
// unreachable members yield ErrServerDown.
func (c *FleetClient) conn(name string) (mcclient.Transport, error) {
	if tr, ok := c.conns[name]; ok {
		return tr, nil
	}
	m := c.f.member(name)
	if m == nil {
		return nil, mcclient.ErrServerDown
	}
	tr, err := c.f.D.dial(c.seat, m.node, m.idx, c.f.behaviors, c.Clock)
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
// policy. A dead owner — no live member, a failed dial, or ErrServerDown
// after the retries — is counted and its cached connection dropped, so a
// later re-join of the same slot re-dials.
func (c *FleetClient) on(owner string, op func(tr mcclient.Transport) error) error {
	tr, err := c.conn(owner)
	if err == nil {
		err = c.f.behaviors.Retry(c.Clock, func() error { return op(tr) })
	}
	if err == mcclient.ErrServerDown {
		c.Stats.Downs++
		c.dropConn(owner)
	}
	return err
}

// Set writes through to all R owners, primary first. The first error is
// surfaced after every owner has been attempted, so a replica outage
// never blocks the primary write (and vice versa).
func (c *FleetClient) Set(key string, value []byte, flags uint32, exptime int64) error {
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return mcclient.ErrNoServers
	}
	if ring.MutReplicaSkip && len(owners) > 1 {
		owners = owners[:1]
	}
	var firstErr error
	for _, o := range owners {
		err := c.on(o, func(tr mcclient.Transport) error {
			_, e := tr.Set(c.Clock, key, flags, exptime, value)
			return e
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get reads the key: primary first; a miss (or dead primary) falls
// through to the replica (fallthroughGet).
func (c *FleetClient) Get(key string) (value []byte, flags uint32, err error) {
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

// Delete removes the key from all R owners. Found if any owner had it.
func (c *FleetClient) Delete(key string) (bool, error) {
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return false, mcclient.ErrNoServers
	}
	var found bool
	var firstErr error
	for _, o := range owners {
		err := c.on(o, func(tr mcclient.Transport) error {
			ok, e := tr.Delete(c.Clock, key)
			found = found || (e == nil && ok)
			return e
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return found, firstErr
}

// FleetGetResult is one key's outcome from GetBurst.
type FleetGetResult struct {
	Value []byte
	Hit   bool
	Err   error
}

// GetBurst pipelines gets for a key batch: keys are grouped by primary
// owner, each group travels through one pipelined window, and primary
// misses/failures take the blocking replica fallthrough (with read
// repair) afterwards. Results align with keys.
func (c *FleetClient) GetBurst(keys []string, window int) []FleetGetResult {
	out := make([]FleetGetResult, len(keys))
	groups := make(map[string][]int)
	var order []string
	for i, k := range keys {
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
			pl, can := tr.(mcclient.Pipeliner)
			if !can {
				// Unpipelined transport: blocking primary reads.
				for _, i := range idxs {
					v, _, hit, e := c.getFrom(primary, keys[i])
					out[i] = FleetGetResult{Value: v, Hit: hit, Err: e}
				}
				break
			}
			p := pl.Pipeline(window)
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
				out[i] = FleetGetResult{Value: v, Hit: ok, Err: e}
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
				out[i] = FleetGetResult{Value: v, Hit: true}
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
		c.seat.ctx.Destroy()
	}
}

// Close shuts every live member down.
func (f *Fleet) Close() {
	f.mu.Lock()
	members := make([]*fleetMember, 0, len(f.members))
	for _, m := range f.members {
		members = append(members, m)
	}
	f.members = make(map[string]*fleetMember)
	f.mu.Unlock()
	for _, m := range members {
		m.srv.Close()
	}
}
