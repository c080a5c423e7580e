package memcheck

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// Mode is one row of the checker's mode table: a named deployment shape
// (which opt-in datapath is armed) and the proof that a sweep actually
// exercised it. The workload shape (Config.NoBursts, Config.Pressure)
// composes with any row. The table is the only place a mode is spelled
// out: `mccheck -mode` reads it, `make memcheck` through -mode all, and
// each seeded bug of `make mutations` names the row that catches it.
type Mode struct {
	Name string
	// Doc says in one line what the row arms; `mccheck -list-modes`
	// prints it after the name.
	Doc string
	// ucrOnly: the mode arms a datapath only UCR-IB has, so it sweeps
	// that transport alone; the others sweep IPoIB too.
	ucrOnly bool
	// Fleet runs the churn-capable replicated cluster against the
	// per-server ownership model instead of the single-server checker.
	Fleet bool
	// Options arms the mode's datapath on the deployment (nil: none).
	Options func(*cluster.Options)
	// Path is the client read path Options arms (PathAM: none). A sweep
	// whose clients never had a read served by it is vacuous.
	Path mcclient.ReadPath
	// guards are the row's further vacuity checks: a sweep that armed a
	// datapath but never drove it validated nothing, and fails.
	guards []guard
}

// guard is one vacuity check over a sweep's summed counters.
type guard struct {
	what  string                 // what must have happened at least once
	zero  func(c *Counters) bool // true: it never did
	lossy bool                   // only checked on lossy sweeps
}

// Counters are the datapath counters one run reports and a sweep sums.
type Counters struct {
	Runs, ucrRuns int
	// Server side: SRQ demux decisions, worker CQ drains that harvested
	// ≥2 completions (the batch-scheduled serving loop), and replies
	// posted as RDMA writes.
	srqDemux, batchedDrains, writeReplies uint64
	// Client side: per-path read accounting summed over the clients.
	paths mcclient.PathStats
	// Fleet: read repairs run, churn events, keyspace fraction moved.
	repairs uint64
	churn   int
	moved   float64
}

// Add folds o into c.
func (c *Counters) Add(o *Counters) {
	c.Runs += o.Runs
	c.ucrRuns += o.ucrRuns
	c.srqDemux += o.srqDemux
	c.batchedDrains += o.batchedDrains
	c.writeReplies += o.writeReplies
	c.paths.Add(&o.paths)
	c.repairs += o.repairs
	c.churn += o.churn
	c.moved += o.moved
}

func (c *Counters) String() string {
	p := &c.paths.By
	return fmt.Sprintf("batchedDrains=%d srqDemux=%d onesided=%d ud=%d udRetx=%d writeReplies=%d writeHits=%d churn=%d moved=%.4f repairs=%d",
		c.batchedDrains, c.srqDemux, p[mcclient.PathOneSided].Hits, p[mcclient.PathUD].Hits,
		p[mcclient.PathUD].Retries, c.writeReplies, p[mcclient.PathWrite].Hits, c.churn, c.moved, c.repairs)
}

// Modes is the mode table. "default" must stay first (ModeByName falls
// back to it).
var Modes = []Mode{
	{
		Name: "default", Doc: "default deployment, pipelined bursts in the mix",
	},
	{
		Name: "onesided", Doc: "GET hits served by validated client RDMA reads",
		ucrOnly: true,
		Options: func(o *cluster.Options) { o.OneSidedGet = true },
		Path:    mcclient.PathOneSided,
	},
	{
		Name: "srq", Doc: "server receives drawn from one shared queue per worker",
		ucrOnly: true,
		Options: func(o *cluster.Options) { o.UseSRQ = true },
		guards: []guard{{
			what: "SRQ demux decisions",
			zero: func(c *Counters) bool { return c.srqDemux == 0 },
		}},
	},
	{
		Name: "ud", Doc: "datagram-sized GET/MGETs over an unreliable endpoint",
		ucrOnly: true,
		Options: func(o *cluster.Options) { o.UDGets = true },
		Path:    mcclient.PathUD,
		guards: []guard{{
			// Clean UD sweeps run with no op timeout (see execute), so
			// retransmission only exists — and is only demanded — when lossy.
			what:  "UD retransmissions",
			zero:  func(c *Counters) bool { return c.paths.By[mcclient.PathUD].Retries == 0 },
			lossy: true,
		}},
	},
	{
		Name: "wrreply", Doc: "hits RDMA-written into the client's reply slots",
		ucrOnly: true,
		// The crossover is forced down to 64 bytes so the generator's
		// ordinary values ride the write path; replies below it (and
		// oversize-vs-slot ones) still take the copy rungs.
		Options: func(o *cluster.Options) { o.WriteReplies, o.WriteReplyEager = true, 64 },
		Path:    mcclient.PathWrite,
		// Both ends: the client landed replies from its slots (Path) and
		// the server posted them as writes.
		guards: []guard{{
			what: "replies posted as RDMA writes",
			zero: func(c *Counters) bool { return c.writeReplies == 0 },
		}},
	},
	{
		Name: "fleet", Doc: "replicated churn-capable cluster vs the ownership model",
		Fleet: true,
		guards: []guard{
			{what: "read repairs", zero: func(c *Counters) bool { return c.repairs == 0 }},
			{what: "churn that moved keyspace", zero: func(c *Counters) bool { return c.churn == 0 || c.moved <= 0 }},
		},
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

// Transports narrows the requested wires to the ones the mode sweeps.
func (m *Mode) Transports(requested []cluster.Transport) []cluster.Transport {
	if !m.ucrOnly {
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
	if m.Path != mcclient.PathAM && c.paths.By[m.Path].Hits == 0 {
		return "reads served by the path the mode arms"
	}
	// Every UCR sweep with pipelined bursts must engage the batch-scheduled
	// serving loop: the generator emits concurrent windows, so at least
	// one worker drain must have harvested ≥2 completions. Zero would mean
	// the checker exercised a request-at-a-time loop instead.
	if !m.Fleet && bursts && c.ucrRuns > 0 && c.batchedDrains == 0 {
		return "batched CQ drains"
	}
	for _, g := range m.guards {
		if (!g.lossy || lossy) && g.zero(c) {
			return g.what
		}
	}
	return ""
}
