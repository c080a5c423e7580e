package cluster

import (
	"fmt"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// Options say what to deploy on a cluster profile: how many servers of
// what shape, and which datapaths to arm. What the testbed costs —
// UCR's eager buffer and credit window, the per-command OpCost — is the
// profile's; a study that varies it edits its own profile copy.
type Options struct {
	// Servers is the number of memcached server processes, each on its
	// own node (the paper's deployment sketch, Fig 1b, aggregates spare
	// memory across many servers; default 1).
	Servers int
	// ServerWorkers is the memcached worker-thread count (default 4).
	ServerWorkers int
	// Stripes is the cache-engine lock-stripe count (power of two;
	// default 8 — the multi-core engine). 1 restores the global cache
	// lock of the memcached generation the paper modified, with the
	// serialization it causes modeled in virtual time.
	Stripes int
	// MemoryLimit is the server cache size (default 512 MB).
	MemoryLimit int64
	// UCREvents switches the server's UCR completion detection from
	// polling to interrupt-style events (ablation).
	UCREvents bool
	// UseSRQ makes server UCR endpoints draw receives from one shared
	// pool per worker (§VII scalability; ablation), Profile.UCR.SRQBuffers
	// deep.
	UseSRQ bool
	// UDGets arms the UD small-get mode (the one UD mode) on every UCR
	// client: alongside the RC endpoint, the client dials an unreliable
	// datagram endpoint and serves GET/MGET requests that fit one
	// datagram over it, with client-side retransmission covering losses
	// and an AMTooBig/AMMGetRetry reply punting oversized values back to
	// RC. Mutating ops always stay on RC.
	UDGets bool
	// SessionsPerQP concentrates that many client sessions onto one RC
	// queue pair: UCR clients are grouped so each group shares a single
	// trunk endpoint (one QP, one progress context), and their operations
	// on it serialize on the deployment's owner like every client's.
	// Values ≤ 1 keep one QP per client. A trunk is dialed like any
	// client, so its sessions are served by every read path the other
	// options arm.
	SessionsPerQP int
	// OneSidedGet arms the one-sided GET data path: every server
	// publishes its remotely-readable directory and every UCR client
	// serves validated GET hits with RDMA reads, falling back to the AM
	// path on miss/conflict. Strictly opt-in so the two-sided
	// benchmarks keep their timing.
	OneSidedGet bool
	// WriteReplies arms the write-based zero-copy reply path: every
	// UCR client registers a reply-slot window arena and
	// advertises a slot with each GET/MGET, and the server answers
	// crossover-sized hits by gather-writing [header ‖ value] straight
	// from the pinned slab chunk into the slot, completing the future
	// with a payload-free notify AM. Small values, oversize-vs-window,
	// UD endpoints, and exhausted arenas all fall back to the ordinary
	// copy rungs of the reply ladder. Strictly opt-in so the depth-1 golden
	// figure tables stay bit-identical.
	WriteReplies bool
	// WriteReplyEager is the write-reply crossover in bytes (reply
	// header included): totals at or below it keep the eager copy path
	// even when a window was advertised. Default 1 KB.
	WriteReplyEager int
	// Faults, when non-nil, installs a deterministic fault injector on
	// every fabric (same config, one independent verdict stream per
	// fabric and node pair). Nil leaves delivery lossless and the
	// figure benchmarks bit-identical.
	Faults *simnet.FaultConfig
}

func (o Options) withDefaults() Options {
	if o.Servers <= 0 {
		o.Servers = 1
	}
	if o.ServerWorkers <= 0 {
		o.ServerWorkers = 4
	}
	if o.Stripes <= 0 {
		o.Stripes = 8
	}
	if o.MemoryLimit <= 0 {
		o.MemoryLimit = 512 << 20
	}
	return o
}

// serviceFor names the sockets service for a transport.
func serviceFor(t Transport) string { return "memcached-" + string(t) }

// ucrServiceFor names the UCR frontend's service for server i (CM
// service names are fabric-wide, so each server gets its own).
func ucrServiceFor(i int) string {
	if i == 0 {
		return "memcached-ucr"
	}
	return fmt.Sprintf("memcached-ucr-%d", i)
}

// Deployment is one simulated testbed: a network, one memcached server
// node serving every transport the profile offers, and any number of
// client nodes.
type Deployment struct {
	Profile *Profile
	Opts    Options

	Network *simnet.Network
	IB      *simnet.Fabric
	eth10G  *simnet.Fabric
	eth1G   *simnet.Fabric
	CM      *verbs.CM

	// ServerNode/Server are the first server (the common single-server
	// case); ServerNodes et al. list all of them.
	ServerNode *simnet.Node
	Server     *memcached.Server

	ServerNodes []*simnet.Node
	Servers     []*memcached.Server
	ServerHCAs  []*verbs.HCA
	ServerRTs   []*ucr.Runtime

	// injectors are the per-fabric fault injectors (empty when
	// Opts.Faults is nil), in the order the fabrics were added.
	injectors []*simnet.FaultInjector

	providers map[Transport]*sockstream.Provider
	clients   int
	trunks    []*trunk
}

// trunk is one connection-concentrator queue-pair group
// (Options.SessionsPerQP): a node with a single RC endpoint per server,
// shared by up to k logical sessions. A session's client holds the
// trunk's transports themselves: their calls serialise on the
// deployment's owner like every client's, so there is nothing to
// forward and no second op driver.
type trunk struct {
	seat
	trs  []*mcclient.UCRTransport // one per server
	used int                      // sessions handed out
}

// New builds a deployment on the given profile.
func New(p *Profile, opts Options) *Deployment {
	opts = opts.withDefaults()
	d := &Deployment{
		Profile:   p,
		Opts:      opts,
		Network:   simnet.NewNetwork(),
		providers: make(map[Transport]*sockstream.Provider),
	}
	d.IB = d.Network.AddFabric(p.IB)
	if p.eth10G != nil {
		d.eth10G = d.Network.AddFabric(*p.eth10G)
	}
	if p.eth1G != nil {
		d.eth1G = d.Network.AddFabric(*p.eth1G)
	}
	d.CM = verbs.NewCM(d.IB)

	if opts.Faults != nil {
		for _, fab := range []*simnet.Fabric{d.IB, d.eth10G, d.eth1G} {
			if fab == nil {
				continue
			}
			fi := simnet.NewFaultInjector(*opts.Faults)
			fab.SetFaults(fi)
			d.injectors = append(d.injectors, fi)
		}
	}

	// Socket providers, seated on their fabrics.
	seat := func(t Transport, model *sockstream.Provider, fab *simnet.Fabric) {
		if model == nil || fab == nil {
			return
		}
		d.providers[t] = model.Clone(fab)
	}
	seat(IPoIB, p.IPoIBModel, d.IB)
	seat(SDP, p.sdpModel, d.IB)
	seat(toe10G, p.toe10GModel, d.eth10G)
	seat(tcp1G, p.tcp1GModel, d.eth1G)

	for i := 0; i < opts.Servers; i++ {
		name := "server"
		if opts.Servers > 1 {
			name = fmt.Sprintf("server%d", i)
		}
		d.addServer(name)
	}
	return d
}

// addServer brings up one more memcached server at runtime — node,
// fabric attachments, socket listeners, UCR frontend — and returns its
// index. The fleet layer calls this for churn joins while traffic is
// running, holding the deployment (owned), so the new server becomes
// reachable without quiescing anything. Panics on listener setup
// failure, like New.
func (d *Deployment) addServer(name string) int {
	i := len(d.Servers)
	node := d.Network.AddNode(name)
	d.IB.Attach(node)
	if d.eth10G != nil {
		d.eth10G.Attach(node)
	}
	if d.eth1G != nil {
		d.eth1G.Attach(node)
	}
	srv := memcached.NewServer(d.Network.Executor(), memcached.ServerConfig{
		Workers: d.Opts.ServerWorkers,
		Store: memcached.StoreConfig{
			MemoryLimit: d.Opts.MemoryLimit,
			Stripes:     d.Opts.Stripes,
		},
		OpCost:          d.Profile.OpCost,
		WriteReplyEager: d.Opts.WriteReplyEager,
		// Lock-held copies run at the cluster's memory pack rate.
		CopyBytesPerSec: d.Profile.UCR.PackBytesPerSec,
		UCREvents:       d.Opts.UCREvents,
	})
	for t, prov := range d.providers {
		lis, err := prov.Listen(node, serviceFor(t))
		if err != nil {
			panic(fmt.Sprintf("cluster: listen %s: %v", t, err))
		}
		srv.ServeSockets(lis)
	}
	hca := verbs.NewHCA(node, d.IB, d.Profile.HCA)
	cfg := d.Profile.UCR
	cfg.UseSRQ = d.Opts.UseSRQ
	rt := ucr.New(hca, d.CM, cfg)
	if err := srv.ServeUCR(rt, ucrServiceFor(i)); err != nil {
		panic(fmt.Sprintf("cluster: serve ucr: %v", err))
	}
	if d.Opts.OneSidedGet {
		if err := srv.EnableOneSided(); err != nil {
			panic(fmt.Sprintf("cluster: enable one-sided: %v", err))
		}
	}
	d.ServerNodes = append(d.ServerNodes, node)
	d.Servers = append(d.Servers, srv)
	d.ServerHCAs = append(d.ServerHCAs, hca)
	d.ServerRTs = append(d.ServerRTs, rt)
	if i == 0 {
		d.ServerNode, d.Server = node, srv
	}
	return i
}

// Client is one benchmark client: a node, a clock, and a connected
// memcached client handle over one transport.
type Client struct {
	Node      *simnet.Node
	Clock     *simnet.VClock
	MC        *mcclient.Client
	Transport Transport

	rt      *ucr.Runtime
	ctx     *ucr.Context
	session bool // MC's transports are a concentrator trunk's
}

// seat is a client machine's place in the deployment: its node on its
// transport's fabric and, for UCR, its own HCA, runtime and progress
// context. Every kind of client — NewClient's, a concentrator trunk, a
// fleet client — is a seat (attach) plus connections (dial).
type seat struct {
	t    Transport
	node *simnet.Node
	rt   *ucr.Runtime
	ctx  *ucr.Context
}

// attach adds a client node (its own machine, like the paper's client
// placement) and seats it on transport t. The caller holds the
// deployment (owned): other clients may already drive traffic.
func (d *Deployment) attach(name string, t Transport) seat {
	s := seat{t: t, node: d.Network.AddNode(name)}
	if t == UCRIB {
		s.rt = ucr.New(verbs.NewHCA(s.node, d.IB, d.Profile.HCA), d.CM, d.Profile.UCR)
		s.ctx = s.rt.NewContext()
	} else {
		d.providers[t].Fabric.Attach(s.node)
	}
	return s
}

// owned runs fn holding the deployment (simnet.Executor.Enter): seats,
// dials and a fleet's membership and ring, which other goroutines'
// clients may be reading. fn must not call an entry point that takes
// it again.
func (d *Deployment) owned(fn func()) {
	ex := d.Network.Executor()
	ex.Enter()
	defer ex.Exit()
	fn()
}

// dial connects a seat to server i, holding the deployment for the
// whole handshake. A UCR connection then gets what
// d.Opts asks for, whoever the seat belongs to: one capability exchange
// arms one-sided GETs and write replies (nothing is sent when neither
// is on), and the UD small-get mode dials its datagram endpoint beside
// the reliable one.
func (d *Deployment) dial(s seat, i int, b mcclient.Behaviors, clk *simnet.VClock) (mcclient.Transport, error) {
	var tr mcclient.Transport
	var ut *mcclient.UCRTransport
	var err error
	d.owned(func() {
		srv := d.ServerNodes[i]
		if s.t != UCRIB {
			tr, err = mcclient.DialSock(d.providers[s.t], s.node, srv, serviceFor(s.t), clk)
			return
		}
		if ut, err = mcclient.DialUCR(s.rt, s.ctx, srv, ucrServiceFor(i), b, clk); err != nil {
			return
		}
		tr = ut
		if err = ut.Arm(clk, d.Opts.OneSidedGet, d.Opts.WriteReplies); err == nil && d.Opts.UDGets {
			var udep *ucr.Endpoint
			if udep, err = s.rt.Dial(s.ctx, srv, ucrServiceFor(i), ucr.Unreliable, clk, 0); err == nil {
				ut.EnableUD(udep)
			}
		}
	})
	if err != nil {
		if ut != nil {
			ut.Close()
		}
		return nil, err
	}
	return tr, nil
}

// NewClient adds a client and connects it to every server over transport
// t. With Options.SessionsPerQP > 1 a UCR client is one concentrated
// session instead: it rides a trunk's queue pairs, its transports the
// trunk's own, with its own virtual clock.
func (d *Deployment) NewClient(t Transport, behaviors mcclient.Behaviors) (*Client, error) {
	if !d.Profile.hasTransport(t) {
		return nil, fmt.Errorf("cluster %s has no %s", d.Profile.name, t)
	}
	d.clients++
	name := fmt.Sprintf("client%d", d.clients)
	c := &Client{Clock: simnet.NewVClock(0), Transport: t}
	var trs []mcclient.Transport
	if t == UCRIB && d.Opts.SessionsPerQP > 1 {
		tr, err := d.openTrunk(name, behaviors, c.Clock)
		if err != nil {
			return nil, err
		}
		c.Node, c.session = tr.node, true
		for _, ut := range tr.trs {
			trs = append(trs, ut)
		}
		tr.used++
	} else {
		var s seat
		d.owned(func() { s = d.attach(name, t) })
		c.Node, c.rt, c.ctx = s.node, s.rt, s.ctx
		for i := range d.ServerNodes {
			tr, err := d.dial(s, i, behaviors, c.Clock)
			if err != nil {
				return nil, err
			}
			trs = append(trs, tr)
		}
	}
	var err error
	c.MC, err = mcclient.New(c.Clock, behaviors, trs)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// openTrunk returns the concentrator trunk with a free session, dialing a
// new one — one node, named name, and one RC QP per server — when the
// last is full: the first client of each group pays for the dial and the
// next k-1 ride the same QPs.
func (d *Deployment) openTrunk(name string, behaviors mcclient.Behaviors, clk *simnet.VClock) (*trunk, error) {
	k := d.Opts.SessionsPerQP
	if n := len(d.trunks); n > 0 && d.trunks[n-1].used < k {
		return d.trunks[n-1], nil
	}
	tr := &trunk{}
	d.owned(func() { tr.seat = d.attach(name, UCRIB) })
	for i := range d.ServerNodes {
		ut, err := d.dial(tr.seat, i, behaviors, clk)
		if err != nil {
			return nil, err
		}
		tr.trs = append(tr.trs, ut.(*mcclient.UCRTransport))
	}
	d.trunks = append(d.trunks, tr)
	return tr, nil
}

// Provider exposes the seated socket provider for a transport (nil for
// UCRIB or transports absent from the profile) — benches read its
// retransmission counter.
func (d *Deployment) Provider(t Transport) *sockstream.Provider { return d.providers[t] }

// Runtime exposes the client's UCR runtime (nil on socket transports) —
// benches read its HCA retransmission counter.
func (c *Client) Runtime() *ucr.Runtime { return c.rt }

// Close tears the client down. A concentrated session's transports are
// its trunk's: Deployment.Close tears them down.
func (c *Client) Close() {
	if c.session {
		return
	}
	c.MC.Close()
	if c.ctx != nil {
		destroy(c.ctx)
	}
}

// destroy tears a client progress context down, holding its deployment:
// its endpoints are their servers' peers.
func destroy(ctx *ucr.Context) {
	ex := ctx.Runtime().HCA().Fabric().Executor()
	ex.Enter()
	defer ex.Exit()
	ctx.Destroy()
}

// Close stops every server and tears down any concentrator trunks
// (session clients must be quiescent by then).
func (d *Deployment) Close() {
	for _, tr := range d.trunks {
		for _, ut := range tr.trs {
			ut.Close()
		}
		destroy(tr.ctx)
	}
	d.trunks = nil
	for _, srv := range d.Servers {
		srv.Close()
	}
}
