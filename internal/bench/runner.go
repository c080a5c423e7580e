package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// RunConfig tunes a measurement run.
type RunConfig struct {
	// OpsPerPoint is the measured operation count per (size, transport).
	OpsPerPoint int
	// KeySpace is the number of distinct keys.
	KeySpace int
	// Seed feeds workload generation.
	Seed uint64
	// Deploy overrides deployment options (worker count etc.).
	Deploy cluster.Options
	// Zipf, when > 0, makes the clients of a multi-client point draw keys
	// by Zipfian popularity with that exponent, each from its own stream
	// (0: round-robin, each from its own offset).
	Zipf float64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.OpsPerPoint <= 0 {
		c.OpsPerPoint = 50
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// latencyPoint measures the mean latency of one (transport, size, mix)
// combination on a fresh single-client deployment — the paper's
// single-client experiment (§VI-B).
func latencyPoint(p *cluster.Profile, t cluster.Transport, mix Mix, size int, cfg RunConfig) (*LatencyRecorder, error) {
	cfg = cfg.withDefaults()
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()
	c, err := d.NewClient(t, mcclient.DefaultBehaviors())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	w := newWorkload(cfg.Seed, cfg.KeySpace, size)
	rec := &LatencyRecorder{}
	if err := runClient(c, w, mix, cfg.OpsPerPoint, rec); err != nil {
		return nil, fmt.Errorf("bench: %s/%s size %d: %w", t, mix, size, err)
	}
	return rec, nil
}

// latencySweep runs latencyPoint over sizes for every transport,
// returning mean microseconds, indexed series[transport][sizeIdx].
func latencySweep(p *cluster.Profile, transports []cluster.Transport, mix Mix, sizes []int, cfg RunConfig) (map[cluster.Transport][]float64, error) {
	out := make(map[cluster.Transport][]float64, len(transports))
	for _, t := range transports {
		vals := make([]float64, 0, len(sizes))
		for _, size := range sizes {
			rec, err := latencyPoint(p, t, mix, size, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, rec.Mean())
		}
		out[t] = vals
	}
	return out, nil
}

// JitterPoint runs many single-client gets on one transport and
// returns the latency distribution — the experiment behind the paper's
// §VI-B jitter investigation (they pushed samples to 10,000 trying to
// smooth SDP on QDR and could not).
func JitterPoint(p *cluster.Profile, t cluster.Transport, size, samples int, cfg RunConfig) (*LatencyRecorder, error) {
	cfg = cfg.withDefaults()
	cfg.OpsPerPoint = samples
	return latencyPoint(p, t, MixGet, size, cfg)
}

// ClosedLoop is the one closed-loop driver: every multi-client
// measurement in this package runs through it. It
// aligns the clients' clocks at the latest one, then runs laps on the
// calling goroutine, each lap calling step(client, lap) once per client
// in index order, and returns the virtual makespan from the common start
// to the last client's finish. With rec non-nil it records every step's
// latency on its client's clock.
//
// One goroutine and a fixed order make the result a pure function of
// the inputs. Contention for shared structures (HCA engines, shard
// locks, SRQ pools, concentrator trunks) resolves in issue order, so
// clients on goroutines of their own would hand that order to the Go
// scheduler. The loop stays closed: a client's clock advances only by
// its own operations' latencies.
func ClosedLoop(clocks []*simnet.VClock, laps int, rec *LatencyRecorder, step func(client, lap int) error) (simnet.Duration, error) {
	start := latest(clocks)
	for _, clk := range clocks {
		clk.AdvanceTo(start)
	}
	for lap := 0; lap < laps; lap++ {
		for i, clk := range clocks {
			issued := clk.Now()
			if err := step(i, lap); err != nil {
				return 0, fmt.Errorf("client %d lap %d: %w", i, lap, err)
			}
			if rec != nil {
				rec.record(clk.Now() - issued)
			}
		}
	}
	return latest(clocks) - start, nil
}

// latest reports the furthest-advanced of the clocks.
func latest(clocks []*simnet.VClock) simnet.Time {
	var t simnet.Time
	for _, clk := range clocks {
		t = simnet.MaxTime(t, clk.Now())
	}
	return t
}

// tpsPoint measures aggregate transactions per second with nClients
// closed-loop clients on distinct nodes doing 100% Gets of the given
// value size — the paper's multi-client experiment (§VI-D).
func tpsPoint(p *cluster.Profile, t cluster.Transport, nClients, size int, cfg RunConfig) (tps float64, err error) {
	return mixTPSPoint(p, t, nClients, size, MixGet, cfg)
}

// mixTPSPoint is tpsPoint for any instruction mix: nClients clients over
// a shared keyspace that the first one populates, each starting at its
// own offset into it (or drawing from its own Zipf stream, cfg.Zipf),
// cfg.OpsPerPoint operations each; aggregate TPS from the makespan.
func mixTPSPoint(p *cluster.Profile, t cluster.Transport, nClients, size int, mix Mix, cfg RunConfig) (tps float64, err error) {
	cfg = cfg.withDefaults()
	err = withClients(p, t, nClients, cfg, func(_ *cluster.Deployment, clients []*cluster.Client, clocks []*simnet.VClock) error {
		workloads := make([]*Workload, nClients)
		for i := range workloads {
			if cfg.Zipf > 0 {
				workloads[i] = newZipfWorkload(cfg.Seed, uint64(i)+1, cfg.KeySpace, size, cfg.Zipf)
			} else {
				workloads[i] = newWorkload(cfg.Seed, cfg.KeySpace, size)
				workloads[i].nextKey = i
			}
		}
		if err := workloads[0].populate(clients[0].MC); err != nil {
			return err
		}
		makespan, err := ClosedLoop(clocks, cfg.OpsPerPoint, nil, func(i, lap int) error {
			return workloads[i].op(clients[i].MC, mix.isSet(lap))
		})
		if err != nil {
			return err
		}
		tps = float64(nClients*cfg.OpsPerPoint) / makespan.Seconds()
		return nil
	})
	return tps, err
}

// withClients is the one place a multi-client point is built: a fresh
// deployment of cfg.Deploy, nClients clients of transport t on distinct
// nodes, and body run over them (clocks[i] is clients[i].Clock, ready
// for ClosedLoop); everything is torn down when body returns. Over a
// pool (Deploy.Servers > 1) the clients place keys as every client does,
// on libmemcached's ketama ring (§II-C).
func withClients(p *cluster.Profile, t cluster.Transport, nClients int, cfg RunConfig,
	body func(d *cluster.Deployment, clients []*cluster.Client, clocks []*simnet.VClock) error) error {
	d := cluster.New(p, cfg.Deploy)
	defer d.Close()
	behaviors := mcclient.DefaultBehaviors()
	clients := make([]*cluster.Client, nClients)
	clocks := make([]*simnet.VClock, nClients)
	for i := range clients {
		c, err := d.NewClient(t, behaviors)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i], clocks[i] = c, c.Clock
	}
	return body(d, clients, clocks)
}

// TPSSweep runs tpsPoint across client counts for every transport,
// returning thousands-of-TPS series, indexed series[transport][countIdx]
// (the unit the paper's Fig 6 y-axis uses).
func TPSSweep(p *cluster.Profile, transports []cluster.Transport, clientCounts []int, size int, cfg RunConfig) (map[cluster.Transport][]float64, error) {
	out := make(map[cluster.Transport][]float64, len(transports))
	for _, t := range transports {
		vals := make([]float64, 0, len(clientCounts))
		for _, n := range clientCounts {
			tps, err := tpsPoint(p, t, n, size, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, tps/1e3)
		}
		out[t] = vals
	}
	return out, nil
}
