package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// This file is the pipelining study: single connection, closed loop,
// window of N requests in flight. Depth 1 is the blocking client the
// figure benchmarks use; deeper windows overlap the per-op fixed costs
// (doorbell, CQ wakeup, round trip) that serialize the blocking path,
// and harvest completions at the coalesced poll rates.

// PipelinePoint is one cell of the depth × transport × size sweep.
// KTPS and NsPerOp are virtual-time measures (the modeled hardware).
type PipelinePoint struct {
	Transport string
	Depth     int
	ValueSize int
	KTPS      float64
	NsPerOp   float64
	// WriteReplies counts the replies that landed through the client's
	// reply window over the whole connection (warmup included) — the
	// write-reply sweep's vacuity evidence. Zero whenever the deployment
	// doesn't arm the path.
	WriteReplies uint64
}

// pipelinePoint measures closed-loop Get throughput on one connection
// at the given window depth: cfg.OpsPerPoint gets are issued through a
// Pipeline over a pre-populated keyspace, KTPS from the makespan.
func pipelinePoint(p *cluster.Profile, t cluster.Transport, depth, size int, cfg RunConfig) (PipelinePoint, error) {
	pt := PipelinePoint{Transport: string(t), Depth: depth, ValueSize: size}
	cfg = cfg.withDefaults()
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()
	c, err := d.NewClient(t, mcclient.DefaultBehaviors())
	if err != nil {
		return pt, err
	}
	defer c.Close()
	w := NewWorkload(cfg.Seed, cfg.KeySpace, size)
	if err := w.Populate(c.MC); err != nil {
		return pt, err
	}
	pl, ok := c.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		return pt, fmt.Errorf("bench: transport %s is not pipelinable", t)
	}
	pipe := pl.Pipeline(depth)
	clk := c.Clock
	// Steady-state warmup: two full windows prime the transport's op and
	// buffer pools, the server's per-worker staging and the reply slabs,
	// so the measured loop sees only the per-op costs.
	warm := make([]*mcclient.GetFuture, 0, 2*depth)
	for n := 0; n < 2*depth; n++ {
		warm = append(warm, pipe.StartGet(clk, w.Key()))
	}
	if err := pipe.Wait(clk); err != nil {
		return pt, err
	}
	for _, f := range warm {
		if _, _, _, hit, ferr := f.Wait(clk); ferr != nil || !hit {
			return pt, fmt.Errorf("bench: pipeline warmup get = (%v, %v)", hit, ferr)
		}
	}
	futures := make([]*mcclient.GetFuture, 0, cfg.OpsPerPoint)
	start := clk.Now()
	for n := 0; n < cfg.OpsPerPoint; n++ {
		futures = append(futures, pipe.StartGet(clk, w.Key()))
	}
	if err := pipe.Wait(clk); err != nil {
		return pt, err
	}
	for _, f := range futures {
		if _, _, _, hit, ferr := f.Wait(clk); ferr != nil {
			return pt, ferr
		} else if !hit {
			return pt, fmt.Errorf("bench: pipeline get missed")
		}
	}
	makespan := clk.Now() - start
	pt.KTPS = float64(cfg.OpsPerPoint) / makespan.Seconds() / 1e3
	pt.NsPerOp = float64(makespan) / float64(cfg.OpsPerPoint)
	if ut, ok := c.MC.Transport(0).(*mcclient.UCRTransport); ok {
		pt.WriteReplies = ut.WriteReplyHits()
	}
	return pt, nil
}

// PipelineSweep measures pipelinePoint for every (transport, depth,
// size) combination, each on a fresh single-server deployment.
func PipelineSweep(p *cluster.Profile, transports []cluster.Transport, depths, sizes []int, cfg RunConfig) ([]PipelinePoint, error) {
	var out []PipelinePoint
	for _, size := range sizes {
		for _, t := range transports {
			for _, depth := range depths {
				pt, err := pipelinePoint(p, t, depth, size, cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: pipeline %s depth=%d size=%d: %w", t, depth, size, err)
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// PipelineTable renders the sweep as one pivot table per value size:
// rows are window depths, columns transports.
func PipelineTable(points []PipelinePoint) string {
	bySize := make(map[int][]PipelinePoint)
	var sizeOrder []int
	for _, pt := range points {
		if _, seen := bySize[pt.ValueSize]; !seen {
			sizeOrder = append(sizeOrder, pt.ValueSize)
		}
		bySize[pt.ValueSize] = append(bySize[pt.ValueSize], pt)
	}
	var sb strings.Builder
	for _, size := range sizeOrder {
		pts := bySize[size]
		var depths []int
		var transports []string
		seenD := make(map[int]bool)
		seenT := make(map[string]bool)
		cell := make(map[string]float64, len(pts))
		for _, pt := range pts {
			if !seenD[pt.Depth] {
				seenD[pt.Depth] = true
				depths = append(depths, pt.Depth)
			}
			if !seenT[pt.Transport] {
				seenT[pt.Transport] = true
				transports = append(transports, pt.Transport)
			}
			cell[fmt.Sprintf("%s/%d", pt.Transport, pt.Depth)] = pt.KTPS
		}
		sort.Ints(depths)
		fmt.Fprintf(&sb, "# pipeline: %dB values, 1 connection (KTPS)\n", size)
		sb.WriteString("depth")
		for _, t := range transports {
			fmt.Fprintf(&sb, "  %-10s", t)
		}
		sb.WriteString("\n")
		for _, depth := range depths {
			fmt.Fprintf(&sb, "%-5d", depth)
			for _, t := range transports {
				fmt.Fprintf(&sb, "  %-10.2f", cell[fmt.Sprintf("%s/%d", t, depth)])
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// PipelineDepths is the sweep's window-depth axis.
var PipelineDepths = []int{1, 2, 4, 8, 16, 32}

// PipelineSizes is the sweep's value-size axis.
var PipelineSizes = []int{64, 4096}
