package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// This file is the fleet-scale study: aggregate throughput, the miss
// storm a membership change sets off, and measured-vs-theoretical key
// movement, at server counts far beyond what one cache ever serves —
// the regime the ketama ring and R=2 replication exist for. Every cell
// spins up a live cluster.Fleet (N servers, 10·N pipelined clients) in
// virtual time; nothing is extrapolated.

// fleetKeysPerClient is each client's private working set. Small on
// purpose: a fleet client lazily dials only its keys' owners, so the
// endpoint mesh stays O(clients · keys), not O(clients · servers).
const fleetKeysPerClient = 2

// fleetValueSize is the stored value size (small-get regime).
const fleetValueSize = 32

// fleetRounds is how many measured get-burst rounds each client drives.
const fleetRounds = 2

// fleetStormCap bounds the post-join sweeps counted toward the miss
// storm (the storm ends the first sweep with zero primary misses).
const fleetStormCap = 5

// FleetCounts are the sweep's server counts, the axis the mcbench
// golden pins.
var FleetCounts = []int{10, 100, 1000}

// FleetPoint is one fleet cell: N servers, 10·N clients.
type FleetPoint struct {
	servers int
	clients int
	// ktps is aggregate fleet throughput over the measured rounds
	// (pipelined replicated gets, closed loop, virtual time).
	ktps float64
	// Movement accounting for one join at size N: the exact ring-arc
	// fraction, the fraction of live keys whose primary changed, and the
	// theoretical share 1/(N+1).
	movedArc      float64
	movedMeasured float64
	movedTheory   float64
	// Miss storm after the join: primary misses in the first sweep
	// (depth), sweeps until a clean one (duration in sweeps), and the
	// virtual time the storm occupied.
	missStormDepth  int
	missStormSweeps int
	missStormUs     float64
	// repairs is the total read-repair count the storm triggered
	// (vacuity: a storm that repaired nothing measured nothing).
	repairs uint64
}

// fleetCell measures one server count.
func fleetCell(p *cluster.Profile, servers int, cfg RunConfig) (FleetPoint, error) {
	pt := FleetPoint{servers: servers, clients: 10 * servers}
	opts := cluster.Options{
		// Lean per-server shape: the cell's subject is fleet behavior,
		// not per-server parallelism, and 1000 fat servers would not fit.
		ServerWorkers: 1,
		Stripes:       1,
		MemoryLimit:   1 << 20,
		UseSRQ:        true,
	}
	f, err := cluster.NewFleet(p, cluster.FleetOptions{
		Transport: cluster.UCRIB,
		Servers:   servers,
		Opts:      opts,
	})
	if err != nil {
		return pt, err
	}
	defer f.Close()

	clients := make([]*cluster.FleetClient, pt.clients)
	clocks := make([]*simnet.VClock, pt.clients)
	keys := make([][]string, pt.clients)
	for i := range clients {
		c, err := f.NewClient()
		if err != nil {
			return pt, fmt.Errorf("client %d: %w", i, err)
		}
		defer c.Close()
		clients[i], clocks[i] = c, c.Clock
		ks := make([]string, fleetKeysPerClient)
		for j := range ks {
			ks[j] = fmt.Sprintf("fleet-%d-%d", i, j)
		}
		keys[i] = ks
	}
	value := make([]byte, fleetValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i, c := range clients {
		for _, k := range keys[i] {
			if err := c.Set(k, value, 0, 0); err != nil {
				return pt, fmt.Errorf("warm %s: %w", k, err)
			}
		}
	}

	// One client's turn: a pipelined burst over its working set, every
	// key a hit.
	burst := func(i, _ int) error {
		for j, r := range clients[i].GetBurst(keys[i], fleetKeysPerClient) {
			if r.Err != nil || !r.Hit {
				return fmt.Errorf("key %s: hit=%v err=%v", keys[i][j], r.Hit, r.Err)
			}
		}
		return nil
	}
	makespan, err := ClosedLoop(clocks, fleetRounds, nil, burst)
	if err != nil {
		return pt, err
	}
	totalOps := float64(pt.clients * fleetKeysPerClient * fleetRounds)
	pt.ktps = totalOps / makespan.Seconds() / 1e3

	// One join at size N: movement accounting from ring snapshots plus a
	// census over every live key.
	pre := f.RingSnapshot()
	f.Join()
	post := f.RingSnapshot()
	pt.movedArc = post.MovedFraction(pre)
	pt.movedTheory = 1 / float64(servers+1)
	var moved, total int
	for i := range clients {
		for _, k := range keys[i] {
			total++
			if pre.Lookup(k) != post.Lookup(k) {
				moved++
			}
		}
	}
	pt.movedMeasured = float64(moved) / float64(total)

	// Miss storm: keys now owned by the joiner miss on it and fall
	// through to the old primary (read repair heals them). Depth is the
	// first sweep's primary-miss count; the storm is over at the first
	// sweep with zero misses.
	fallthroughs := func() uint64 {
		var n uint64
		for _, c := range clients {
			n += c.Stats.Fallthroughs
		}
		return n
	}
	repairs := func() uint64 {
		var n uint64
		for _, c := range clients {
			n += c.Stats.Repairs
		}
		return n
	}
	// The storm's sweeps carry on from wherever the measured rounds left
	// each client (a join does not pause the fleet to re-align it), one
	// sweep at a time until one comes back clean.
	stormStart := latest(clocks)
	rp0 := repairs()
	for s := 0; s < fleetStormCap; s++ {
		before := fallthroughs()
		for i := range clients {
			if err := burst(i, s); err != nil {
				return pt, fmt.Errorf("storm sweep %d client %d: %w", s, i, err)
			}
		}
		delta := fallthroughs() - before
		pt.missStormSweeps++
		if s == 0 {
			pt.missStormDepth = int(delta)
		}
		if delta == 0 {
			break
		}
	}
	pt.missStormUs = (latest(clocks) - stormStart).Seconds() * 1e6
	pt.repairs = repairs() - rp0
	return pt, nil
}

// FleetSweep runs the fleet cells for every server count.
func FleetSweep(p *cluster.Profile, counts []int, cfg RunConfig) ([]FleetPoint, error) {
	cfg = cfg.withDefaults()
	var out []FleetPoint
	for _, n := range counts {
		pt, err := fleetCell(p, n, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fleet n=%d: %w", n, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// FleetTable renders the sweep.
func FleetTable(pts []FleetPoint) string {
	var sb strings.Builder
	sb.WriteString("# fleet sweep: N servers, 10N pipelined clients, R=2, one join at size N\n")
	sb.WriteString("servers  clients     ktps   moved(arc)  moved(meas)  theory(1/N+1)  storm-depth  storm-sweeps  storm-us  repairs\n")
	for _, pt := range pts {
		fmt.Fprintf(&sb, "%-8d %-8d %8.1f   %.4f      %.4f       %.4f         %-12d %-13d %8.1f  %d\n",
			pt.servers, pt.clients, pt.ktps, pt.movedArc, pt.movedMeasured, pt.movedTheory,
			pt.missStormDepth, pt.missStormSweeps, pt.missStormUs, pt.repairs)
	}
	return sb.String()
}
