package cluster

import (
	"fmt"
	"sync"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/verbs"

	ucrpkg "repro/internal/ucr"
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
	name    string
	idx     int // Deployment server index (fixed; slots are never reused)
	node    *simnet.Node
	srv     *memcached.Server
	service string // UCR CM service name for this slot
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
	if opts.Transport != UCRIB && !p.HasTransport(opts.Transport) {
		return nil, fmt.Errorf("cluster %s has no %s", p.Name, opts.Transport)
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
		f.members[name] = &fleetMember{
			name: name, idx: i, node: node, srv: d.Servers[i],
			service: ucrServiceFor(i),
		}
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
func (f *Fleet) Owners(key string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Owners(key, f.replicas)
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
	f.members[name] = &fleetMember{
		name: name, idx: idx, node: f.D.ServerNodes[idx],
		srv: f.D.Servers[idx], service: ucrServiceFor(idx),
	}
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
// that actually own one of its keys. Not safe for concurrent use
// (one per goroutine, like mcclient.Client).
type FleetClient struct {
	f         *Fleet
	Node      *simnet.Node
	Clock     *simnet.VClock
	behaviors mcclient.Behaviors

	rt    *ucrpkg.Runtime
	ctx   *ucrpkg.Context
	conns map[string]mcclient.Transport

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

	node := f.D.Network.AddNode(fmt.Sprintf("fclient%d", n))
	clk := simnet.NewVClock(0)
	c := &FleetClient{
		f: f, Node: node, Clock: clk, behaviors: f.behaviors,
		conns: make(map[string]mcclient.Transport),
	}
	if f.transport == UCRIB {
		hca := verbs.NewHCA(node, f.D.IB, f.D.Profile.HCA)
		c.rt = ucrpkg.New(hca, f.D.CM, f.D.clientUCRConfig())
		c.ctx = c.rt.NewContext()
	} else {
		switch f.transport {
		case IPoIB, SDP:
			f.D.IB.Attach(node)
		case TOE10G:
			f.D.Eth10G.Attach(node)
		case TCP1G:
			f.D.Eth1G.Attach(node)
		}
	}
	if ring.MutRingStale {
		c.staleRing = f.RingSnapshot()
	}
	f.mu.Lock()
	f.clientNodes = append(f.clientNodes, node)
	f.mu.Unlock()
	return c, nil
}

// owners resolves the key's R owners by the CURRENT ring (or, under the
// seeded MutRingStale bug, the construction-time snapshot).
func (c *FleetClient) owners(key string) []string {
	if c.staleRing != nil {
		return c.staleRing.Owners(key, c.f.replicas)
	}
	return c.f.Owners(key)
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
	var tr mcclient.Transport
	var err error
	if c.f.transport == UCRIB {
		tr, err = mcclient.DialUCR(c.rt, c.ctx, m.node, m.service, c.behaviors, c.Clock)
	} else {
		tr, err = mcclient.DialSock(c.f.D.providers[c.f.transport], c.Node, m.node,
			serviceFor(c.f.transport), c.behaviors, c.Clock)
	}
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
		err := c.storeTo(o, 0, key, flags, exptime, value, false)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// storeTo runs one store op against one owner with retry; op 0 is a
// plain Set, anything else a conditional memcached.StoreOp* (read
// repair uses StoreOpAdd).
func (c *FleetClient) storeTo(owner string, op uint8, key string, flags uint32, exptime int64, value []byte, ignoreResult bool) error {
	tr, err := c.conn(owner)
	if err != nil {
		c.Stats.Downs++
		return err
	}
	err = c.behaviors.Retry(c.Clock, func() error {
		var e error
		if op == 0 {
			_, e = tr.Set(c.Clock, key, flags, exptime, value)
		} else {
			cs, ok := tr.(mcclient.CondStorer)
			if !ok {
				return fmt.Errorf("fleet: transport %s cannot %d", tr.Name(), op)
			}
			_, e = cs.StoreOp(c.Clock, op, key, flags, exptime, value, 0)
		}
		return e
	})
	if err == mcclient.ErrServerDown {
		c.Stats.Downs++
		c.dropConn(owner)
	}
	if ignoreResult {
		return nil
	}
	return err
}

// Get reads the key: primary first; a miss (or dead primary) falls
// through to the replica, and a replica hit triggers an asynchronous-
// style read repair — a store-if-absent on the primary whose outcome is
// ignored, so it can neither change the returned value nor clobber a
// newer concurrent write.
func (c *FleetClient) Get(key string) (value []byte, flags uint32, err error) {
	c.Stats.Ops++
	owners := c.owners(key)
	if len(owners) == 0 {
		return nil, 0, mcclient.ErrNoServers
	}
	primary := owners[0]
	v, fl, hit, perr := c.getFrom(primary, key)
	if perr == nil && hit {
		c.Stats.PrimaryHits++
		return v, fl, nil
	}
	if len(owners) < 2 {
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, mcclient.ErrCacheMiss
	}
	c.Stats.Fallthroughs++
	rv, rfl, rhit, rerr := c.getFrom(owners[1], key)
	if rerr != nil {
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, rerr
	}
	if !rhit {
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, mcclient.ErrCacheMiss
	}
	c.Stats.ReplicaHits++
	if perr == nil {
		// Primary is alive but missed: repair it. Add (store-if-absent)
		// keeps a concurrent newer Set from being overwritten.
		c.Stats.Repairs++
		c.storeTo(primary, memcached.StoreOpAdd, key, rfl, 0, rv, true)
	}
	return rv, rfl, nil
}

// getFrom runs one get against one owner with retry.
func (c *FleetClient) getFrom(owner, key string) (value []byte, flags uint32, hit bool, err error) {
	tr, cerr := c.conn(owner)
	if cerr != nil {
		c.Stats.Downs++
		return nil, 0, false, cerr
	}
	err = c.behaviors.Retry(c.Clock, func() error {
		var e error
		value, flags, _, hit, e = tr.Get(c.Clock, key)
		return e
	})
	if err == mcclient.ErrServerDown {
		c.Stats.Downs++
		c.dropConn(owner)
	}
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
		tr, err := c.conn(o)
		if err != nil {
			c.Stats.Downs++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var ok bool
		err = c.behaviors.Retry(c.Clock, func() error {
			var e error
			ok, e = tr.Delete(c.Clock, key)
			return e
		})
		if err != nil {
			if err == mcclient.ErrServerDown {
				c.Stats.Downs++
				c.dropConn(o)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		found = found || ok
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
			for j, i := range idxs {
				v, _, _, ok, e := futs[j].Wait(c.Clock)
				out[i] = FleetGetResult{Value: v, Hit: ok, Err: e}
				if e == mcclient.ErrServerDown {
					c.Stats.Downs++
				}
			}
			if anyDown(out, idxs) {
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
			v, _, e := c.fallthroughGet(keys[i], out[i].Err)
			if e == nil {
				out[i] = FleetGetResult{Value: v, Hit: true}
			} else {
				out[i] = FleetGetResult{Err: e}
			}
		}
	}
	return out
}

func anyDown(out []FleetGetResult, idxs []int) bool {
	for _, i := range idxs {
		if out[i].Err == mcclient.ErrServerDown {
			return true
		}
	}
	return false
}

// fallthroughGet consults the replica after a primary miss/failure
// (perr is the primary's error, nil for a plain miss) and repairs a
// live primary on a replica hit.
func (c *FleetClient) fallthroughGet(key string, perr error) (value []byte, flags uint32, err error) {
	owners := c.owners(key)
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
		c.storeTo(owners[0], memcached.StoreOpAdd, key, rfl, 0, rv, true)
	}
	return rv, rfl, nil
}

// DirectGet reads a key from one named member, bypassing the ring —
// the memcheck fleet epilogue probes every live server's actual
// holdings this way to compare against the per-server reference model.
func (c *FleetClient) DirectGet(server, key string) (value []byte, hit bool, err error) {
	tr, cerr := c.conn(server)
	if cerr != nil {
		return nil, false, cerr
	}
	err = c.behaviors.Retry(c.Clock, func() error {
		var e error
		value, _, _, hit, e = tr.Get(c.Clock, key)
		return e
	})
	return value, hit, err
}

// Close tears the client's connections down.
func (c *FleetClient) Close() {
	for _, tr := range c.conns {
		tr.Close()
	}
	c.conns = nil
	if c.ctx != nil {
		c.ctx.Destroy()
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
