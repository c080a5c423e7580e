package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// This file is the multi-core scaling study the paper's §VII points at:
// aggregate throughput over (server workers × lock stripes), contrasting
// the global-cache-lock engine (Stripes=1) with the striped one.

// ScalingOpCost is the per-op engine cost the sweep charges when the
// caller doesn't override Deploy.OpCost: a CPU-bound command-processing
// regime (hash + LRU + bookkeeping dominating the HCA poll path), which
// is exactly where lock scaling is visible. With the stock sub-µs
// OpCost the HCA pipeline, not the cache lock, is the bottleneck and
// every engine looks the same.
const ScalingOpCost = 25 * simnet.Microsecond

// scalingKeySpace spreads keys across stripes evenly enough that one
// hot shard doesn't mask worker scaling.
const scalingKeySpace = 128

// scalingValueSize is the small-Get payload (§VI's "small message"
// regime).
const scalingValueSize = 64

// ScalingPoint is one cell of the workers × stripes × mix grid.
type ScalingPoint struct {
	Workers int     `json:"workers"`
	Stripes int     `json:"stripes"`
	Clients int     `json:"clients"`
	Mix     string  `json:"mix"`
	KTPS    float64 `json:"ktps"`
}

// ScalingSweep measures aggregate TPS for every (workers, stripes, mix)
// combination with nClients closed-loop clients on transport t. Unless
// cfg.Deploy.OpCost is set it charges ScalingOpCost per op, so the
// engine — not the fabric — is the bottleneck under test.
func ScalingSweep(p *cluster.Profile, t cluster.Transport, workerCounts, stripeCounts []int, nClients int, mixes []Mix, cfg RunConfig) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	if cfg.Deploy.OpCost == 0 {
		cfg.Deploy.OpCost = ScalingOpCost
	}
	cfg.KeySpace = scalingKeySpace
	var out []ScalingPoint
	for _, mix := range mixes {
		for _, st := range stripeCounts {
			for _, w := range workerCounts {
				c := cfg
				c.Deploy.ServerWorkers = w
				c.Deploy.Stripes = st
				tps, err := mixTPSPoint(p, t, nClients, scalingValueSize, mix, c)
				if err != nil {
					return nil, fmt.Errorf("bench: scaling %s w=%d s=%d: %w", mix, w, st, err)
				}
				out = append(out, ScalingPoint{
					Workers: w, Stripes: st, Clients: nClients,
					Mix: mix.String(), KTPS: tps / 1e3,
				})
			}
		}
	}
	return out, nil
}

// mixTPSPoint is TPSPoint generalized to an instruction mix: nClients
// closed-loop clients over a shared pre-populated keyspace, makespan-
// based aggregate TPS.
func mixTPSPoint(p *cluster.Profile, t cluster.Transport, nClients, size int, mix Mix, cfg RunConfig) (tps float64, err error) {
	cfg = cfg.withDefaults()
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()

	clients := make([]*cluster.Client, nClients)
	for i := range clients {
		c, cerr := d.NewClient(t, mcclient.DefaultBehaviors())
		if cerr != nil {
			return 0, cerr
		}
		defer c.Close()
		clients[i] = c
	}
	w0 := NewWorkload(cfg.Seed, cfg.KeySpace, size)
	for _, k := range w0.Keys() {
		if err := clients[0].MC.Set(k, w0.Value(), 0, 0); err != nil {
			return 0, err
		}
	}
	var start simnet.Time
	for _, c := range clients {
		if c.Clock.Now() > start {
			start = c.Clock.Now()
		}
	}
	for _, c := range clients {
		c.Clock.AdvanceTo(start)
	}

	// One goroutine drives every client round-robin (as connScaleTPS
	// does): shard-lock queueing resolves in arrival order, so clients on
	// goroutines of their own would let the Go scheduler pick the
	// virtual-time service order and the sweep would differ run to run.
	cycle := mix.ops()
	opsPerClient := cfg.OpsPerPoint
	workloads := make([]*Workload, nClients)
	for i := range workloads {
		workloads[i] = NewWorkload(cfg.Seed, cfg.KeySpace, size)
		workloads[i].nextKey = i
	}
	for n := 0; n < opsPerClient; n++ {
		for i, c := range clients {
			w := workloads[i]
			key := w.Key()
			if cycle[n%len(cycle)] {
				err = c.MC.Set(key, w.Value(), 0, 0)
			} else {
				_, _, _, err = c.MC.Get(key)
			}
			if err != nil {
				return 0, fmt.Errorf("client %d op %d: %w", i, n, err)
			}
		}
	}
	var makespan simnet.Duration
	for _, c := range clients {
		if d := c.Clock.Now() - start; d > makespan {
			makespan = d
		}
	}
	totalOps := float64(nClients * opsPerClient)
	return totalOps / makespan.Seconds(), nil
}

// ScalingTable renders the sweep as one pivot table per mix: rows are
// worker counts, columns stripe counts.
func ScalingTable(points []ScalingPoint) string {
	byMix := make(map[string][]ScalingPoint)
	var mixOrder []string
	for _, pt := range points {
		if _, seen := byMix[pt.Mix]; !seen {
			mixOrder = append(mixOrder, pt.Mix)
		}
		byMix[pt.Mix] = append(byMix[pt.Mix], pt)
	}
	var sb strings.Builder
	for _, mix := range mixOrder {
		pts := byMix[mix]
		workers, stripes := axes(pts)
		cell := make(map[[2]int]float64, len(pts))
		clients := 0
		for _, pt := range pts {
			cell[[2]int{pt.Workers, pt.Stripes}] = pt.KTPS
			clients = pt.Clients
		}
		fmt.Fprintf(&sb, "# scaling: %s, %d clients (KTPS)\n", mix, clients)
		sb.WriteString("workers")
		for _, st := range stripes {
			fmt.Fprintf(&sb, "  stripes=%-3d", st)
		}
		sb.WriteString("\n")
		for _, w := range workers {
			fmt.Fprintf(&sb, "%-7d", w)
			for _, st := range stripes {
				fmt.Fprintf(&sb, "  %-11.2f", cell[[2]int{w, st}])
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// axes extracts the sorted distinct worker and stripe counts.
func axes(pts []ScalingPoint) (workers, stripes []int) {
	ws := make(map[int]bool)
	ss := make(map[int]bool)
	for _, pt := range pts {
		ws[pt.Workers] = true
		ss[pt.Stripes] = true
	}
	for w := range ws {
		workers = append(workers, w)
	}
	for s := range ss {
		stripes = append(stripes, s)
	}
	sort.Ints(workers)
	sort.Ints(stripes)
	return workers, stripes
}
