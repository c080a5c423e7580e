package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// FaultCell is one (transport, drop%) measurement of the fault sweep:
// a closed-loop get run over a lossy fabric, with every recovery layer
// active — RC retransmission under UCR, RTO retransmission under the
// socket transports, and client retry+backoff above both.
type FaultCell struct {
	transport cluster.Transport
	dropPct   float64
	// ops is the attempted operation count; failed counts operations
	// that still errored after every retry layer gave up.
	ops    int
	failed int
	// meanUs/p99Us are latencies over the completed operations.
	meanUs float64
	p99Us  float64
	// retransmits counts wire-level resends: HCA retransmissions for
	// UCR, provider RTO retransmissions for socket transports.
	retransmits uint64
}

// faultBehaviors is the client configuration for lossy runs: bounded
// retry with backoff (no ejection — the server is healthy, the fabric
// is not) and, over UCR, an op timeout so the AM retry budget engages.
func faultBehaviors(t cluster.Transport) mcclient.Behaviors {
	b := mcclient.DefaultBehaviors()
	b.Retries = 3
	b.RetryBackoff = 200 * simnet.Microsecond
	if t == cluster.UCRIB {
		b.OpTimeout = 4 * simnet.Millisecond
	}
	return b
}

// FaultSweep measures every transport at every drop percentage, one
// fresh deployment per cell so fault streams never leak across cells.
// With the same RunConfig the sweep is deterministic: per-pair verdict
// streams are seeded, so two invocations return identical cells.
func FaultSweep(p *cluster.Profile, transports []cluster.Transport, dropPcts []float64, size int, cfg RunConfig) ([]FaultCell, error) {
	cfg = cfg.withDefaults()
	var out []FaultCell
	for _, t := range transports {
		for _, drop := range dropPcts {
			cell, err := faultPoint(p, t, drop, size, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: fault sweep %s at %.0f%%: %w", t, drop, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func faultPoint(p *cluster.Profile, t cluster.Transport, dropPct float64, size int, cfg RunConfig) (FaultCell, error) {
	deploy := cfg.Deploy
	if dropPct > 0 {
		deploy.Faults = cluster.LossyFaults(dropPct, cfg.seed)
	}
	d := cluster.New(p, deploy)
	defer d.Close()
	c, err := d.NewClient(t, faultBehaviors(t))
	if err != nil {
		return FaultCell{}, err
	}
	defer c.Close()

	cell := FaultCell{transport: t, dropPct: dropPct, ops: cfg.OpsPerPoint}
	w := newWorkload(cfg.seed, cfg.keySpace, size)
	for _, k := range w.keys {
		if err := c.MC.Set(k, w.value, 0, 0); err != nil {
			cell.failed++
		}
	}
	rec := &LatencyRecorder{}
	for n := 0; n < cfg.OpsPerPoint; n++ {
		start := c.Clock.Now()
		_, _, _, err := c.MC.Get(w.key())
		if err != nil && err != mcclient.ErrCacheMiss {
			cell.failed++
			continue
		}
		rec.record(c.Clock.Now() - start)
	}
	cell.meanUs = rec.Mean()
	cell.p99Us = rec.Percentile(99)

	if t == cluster.UCRIB {
		if rt := c.Runtime(); rt != nil {
			cell.retransmits += rt.HCA().Retransmits()
		}
		for _, hca := range d.ServerHCAs {
			cell.retransmits += hca.Retransmits()
		}
	} else if prov := d.Provider(t); prov != nil {
		cell.retransmits = prov.Retransmits()
	}
	return cell, nil
}

// FaultSweepString renders the sweep as a fixed-width table.
func FaultSweepString(cells []FaultCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %6s %7s %12s %12s %12s\n",
		"transport", "drop%", "ops", "failed", "mean(us)", "p99(us)", "retransmits")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %6.1f %6d %7d %12.2f %12.2f %12d\n",
			c.transport, c.dropPct, c.ops, c.failed, c.meanUs, c.p99Us, c.retransmits)
	}
	return b.String()
}
