package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// This file is the multi-core scaling study the paper's §VII points at:
// aggregate throughput over (server workers × lock stripes), contrasting
// the global-cache-lock engine (Stripes=1) with the striped one.

// scalingOpCost is the per-op engine cost the sweep's profile charges
// in place of the testbed's Profile.OpCost: a CPU-bound command-processing
// regime (hash + LRU + bookkeeping dominating the HCA poll path), which
// is exactly where lock scaling is visible. With the stock sub-µs
// OpCost the HCA pipeline, not the cache lock, is the bottleneck and
// every engine looks the same.
const scalingOpCost = 25 * simnet.Microsecond

// scalingKeySpace spreads keys across stripes evenly enough that one
// hot stripe doesn't mask worker scaling.
const scalingKeySpace = 128

// scalingValueSize is the small-Get payload (§VI's "small message"
// regime).
const scalingValueSize = 64

// ScalingPoint is one cell of the workers × stripes × mix grid.
type ScalingPoint struct {
	workers int
	stripes int
	clients int
	mix     string
	ktps    float64
}

// ScalingSweep measures aggregate TPS for every (workers, stripes, mix)
// combination with nClients closed-loop clients on transport t. It runs
// on a copy of p that charges scalingOpCost per op, so the engine — not
// the fabric — is the bottleneck under test.
func ScalingSweep(p *cluster.Profile, t cluster.Transport, workerCounts, stripeCounts []int, nClients int, mixes []Mix, cfg RunConfig) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	heavy := *p
	heavy.OpCost = scalingOpCost
	cfg.keySpace = scalingKeySpace
	var out []ScalingPoint
	for _, mix := range mixes {
		for _, st := range stripeCounts {
			for _, w := range workerCounts {
				c := cfg
				c.Deploy.ServerWorkers = w
				c.Deploy.Stripes = st
				tps, err := mixTPSPoint(&heavy, t, nClients, scalingValueSize, mix, c)
				if err != nil {
					return nil, fmt.Errorf("bench: scaling %s w=%d s=%d: %w", mix, w, st, err)
				}
				out = append(out, ScalingPoint{
					workers: w, stripes: st, clients: nClients,
					mix: mix.String(), ktps: tps / 1e3,
				})
			}
		}
	}
	return out, nil
}

// ScalingTable renders the sweep as one pivot table per mix: rows are
// worker counts, columns stripe counts.
func ScalingTable(points []ScalingPoint) string {
	byMix := make(map[string][]ScalingPoint)
	var mixOrder []string
	for _, pt := range points {
		if _, seen := byMix[pt.mix]; !seen {
			mixOrder = append(mixOrder, pt.mix)
		}
		byMix[pt.mix] = append(byMix[pt.mix], pt)
	}
	var sb strings.Builder
	for _, mix := range mixOrder {
		pts := byMix[mix]
		workers, stripes := axes(pts)
		cell := make(map[[2]int]float64, len(pts))
		clients := 0
		for _, pt := range pts {
			cell[[2]int{pt.workers, pt.stripes}] = pt.ktps
			clients = pt.clients
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
		ws[pt.workers] = true
		ss[pt.stripes] = true
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
