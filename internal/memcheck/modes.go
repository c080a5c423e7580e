package memcheck

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// Mode is one row of the checker's mode table: a named deployment shape
// (which opt-in datapath is armed), the proof that a sweep actually
// exercised it, and the seeded bugs that need it. The workload shape
// (Config.NoBursts, Config.Pressure) composes with any row.
// The table is the only place a mode is spelled out: `mccheck -mode`,
// `make memcheck` (through -mode all) and the mutation builds all read
// it.
type Mode struct {
	Name string
	// Doc says in one line what the row arms; `mccheck -list-modes`
	// prints it after the name.
	Doc string
	// UCROnly: the mode arms a datapath only UCR-IB has, so it sweeps
	// that transport alone; the others sweep IPoIB too.
	UCROnly bool
	// Fleet runs the churn-capable replicated cluster against the
	// per-server ownership model instead of the single-server checker.
	Fleet bool
	// Options arms the mode's datapath on the deployment (nil: none).
	Options func(*cluster.Options)
	// Path is the client read path Options arms (PathAM: none). A sweep
	// whose clients never had a read served by it is vacuous.
	Path mcclient.ReadPath
	// Guards are the row's further vacuity checks: a sweep that armed a
	// datapath but never drove it validated nothing, and fails.
	Guards []Guard
	// Mutations are the mut_* build tags whose seeded bug only fires in
	// this mode: a binary built with one runs the mode unasked.
	// MutationsLossy says the bug additionally needs a lossy fabric.
	Mutations      []string
	MutationsLossy bool
}

// Guard is one vacuity check over a sweep's summed counters.
type Guard struct {
	What  string                 // what must have happened at least once
	Zero  func(c *Counters) bool // true: it never did
	Lossy bool                   // only checked on lossy sweeps
}

// Counters are the datapath counters one run reports and a sweep sums.
type Counters struct {
	Runs, UCRRuns int
	// Server side: SRQ demux decisions, worker CQ drains that harvested
	// ≥2 completions (the batch-scheduled serving loop), and replies
	// posted as RDMA writes.
	SRQDemux, BatchedDrains, WriteReplies uint64
	// Client side: per-path read accounting summed over the clients.
	Paths mcclient.PathStats
	// Fleet: read repairs run, churn events, keyspace fraction moved.
	Repairs uint64
	Churn   int
	Moved   float64
}

// Add folds o into c.
func (c *Counters) Add(o *Counters) {
	c.Runs += o.Runs
	c.UCRRuns += o.UCRRuns
	c.SRQDemux += o.SRQDemux
	c.BatchedDrains += o.BatchedDrains
	c.WriteReplies += o.WriteReplies
	c.Paths.Add(&o.Paths)
	c.Repairs += o.Repairs
	c.Churn += o.Churn
	c.Moved += o.Moved
}

func (c *Counters) String() string {
	p := &c.Paths.By
	return fmt.Sprintf("batchedDrains=%d srqDemux=%d onesided=%d ud=%d udRetx=%d writeReplies=%d writeHits=%d churn=%d moved=%.4f repairs=%d",
		c.BatchedDrains, c.SRQDemux, p[mcclient.PathOneSided].Hits, p[mcclient.PathUD].Hits,
		p[mcclient.PathUD].Retries, c.WriteReplies, p[mcclient.PathWrite].Hits, c.Churn, c.Moved, c.Repairs)
}

// Modes is the mode table. "default" must stay first (ModeFor falls
// back to it).
var Modes = []Mode{
	{
		Name: "default", Doc: "default deployment, pipelined bursts in the mix",
		Mutations: []string{"mut_append_nocas", "mut_get_skip_expiry", "mut_cas_ignore_id",
			"mut_delete_noop", "mut_add_clobbers", "mut_proto_drop_flags"},
	},
	{
		Name: "onesided", Doc: "GET hits served by validated client RDMA reads",
		UCROnly:   true,
		Options:   func(o *cluster.Options) { o.OneSidedGet = true },
		Path:      mcclient.PathOneSided,
		Mutations: []string{"mut_onesided_stale"},
	},
	{
		Name: "srq", Doc: "server receives drawn from one shared queue per worker",
		UCROnly: true,
		Options: func(o *cluster.Options) { o.UseSRQ = true },
		Guards: []Guard{{
			What: "SRQ demux decisions",
			Zero: func(c *Counters) bool { return c.SRQDemux == 0 },
		}},
		Mutations: []string{"mut_srq_misroute"},
	},
	{
		Name: "ud", Doc: "datagram-sized GET/MGETs over an unreliable endpoint",
		UCROnly: true,
		Options: func(o *cluster.Options) { o.UDGets = true },
		Path:    mcclient.PathUD,
		Guards: []Guard{{
			// Clean UD sweeps run with no op timeout (see execute), so
			// retransmission only exists — and is only demanded — when lossy.
			What:  "UD retransmissions",
			Zero:  func(c *Counters) bool { return c.Paths.By[mcclient.PathUD].Retries == 0 },
			Lossy: true,
		}},
		// The dup-accept only fires when late duplicate replies exist,
		// which takes UD traffic plus timeouts from a lossy fabric.
		Mutations: []string{"mut_ud_dup_ack"}, MutationsLossy: true,
	},
	{
		Name: "wrreply", Doc: "hits RDMA-written into the client's reply slots",
		UCROnly: true,
		// The crossover is forced down to 64 bytes so the generator's
		// ordinary values ride the write path; replies below it (and
		// oversize-vs-slot ones) still take the copy rungs.
		Options: func(o *cluster.Options) { o.WriteReplies, o.WriteReplyEager = true, 64 },
		Path:    mcclient.PathWrite,
		// Both ends: the client landed replies from its slots (Path) and
		// the server posted them as writes.
		Guards: []Guard{{
			What: "replies posted as RDMA writes",
			Zero: func(c *Counters) bool { return c.WriteReplies == 0 },
		}},
		Mutations: []string{"mut_wrreply_stale"},
	},
	{
		Name: "fleet", Doc: "replicated churn-capable cluster vs the ownership model",
		Fleet: true,
		Guards: []Guard{
			{What: "read repairs", Zero: func(c *Counters) bool { return c.Repairs == 0 }},
			{What: "churn that moved keyspace", Zero: func(c *Counters) bool { return c.Churn == 0 || c.Moved <= 0 }},
		},
		Mutations: []string{"mut_ring_stale", "mut_replica_skip"},
	},
}

// ModeByName looks a row up; "" names the default row.
func ModeByName(name string) (*Mode, error) {
	if name == "" {
		return &Modes[0], nil
	}
	for i := range Modes {
		if Modes[i].Name == name {
			return &Modes[i], nil
		}
	}
	return nil, fmt.Errorf("memcheck: unknown mode %q (have %s)", name, strings.Join(modeNames(), ", "))
}

// modeNames lists the table's rows in order.
func modeNames() []string {
	names := make([]string, len(Modes))
	for i := range Modes {
		names[i] = Modes[i].Name
	}
	return names
}

// ModeFor picks the mode a mutation build must run for its seeded bug
// to be reachable, and whether it also needs a lossy fabric: the row
// listing one of the active tags, or the default row.
func ModeFor(activeMutations []string) (m *Mode, lossy bool) {
	for i := range Modes {
		for _, tag := range activeMutations {
			if slices.Contains(Modes[i].Mutations, tag) {
				return &Modes[i], Modes[i].MutationsLossy
			}
		}
	}
	return &Modes[0], false
}

// Transports narrows the requested wires to the ones the mode sweeps.
func (m *Mode) Transports(requested []cluster.Transport) []cluster.Transport {
	if !m.UCROnly {
		return requested
	}
	if slices.Contains(requested, cluster.UCRIB) {
		return []cluster.Transport{cluster.UCRIB}
	}
	return nil
}

// Vacuous reports the first guard a run or sweep with these summed
// counters failed, or "". bursts says the workload was generated with
// pipelined bursts in the mix (not Config.NoBursts, not a script replay).
func (m *Mode) Vacuous(c *Counters, lossy, bursts bool) string {
	if m.Path != mcclient.PathAM && c.Paths.By[m.Path].Hits == 0 {
		return "reads served by the path the mode arms"
	}
	// Every UCR sweep with pipelined bursts must engage the batch-scheduled
	// serving loop: the generator emits concurrent windows, so at least
	// one worker drain must have harvested ≥2 completions. Zero would mean
	// the checker exercised a request-at-a-time loop instead.
	if !m.Fleet && bursts && c.UCRRuns > 0 && c.BatchedDrains == 0 {
		return "batched CQ drains"
	}
	for _, g := range m.Guards {
		if (!g.Lossy || lossy) && g.Zero(c) {
			return g.What
		}
	}
	return ""
}
