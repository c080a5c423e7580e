package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// The load-generator study: what memslap and a trace replayer measure,
// as cells of the one study table. The production traces the paper's
// motivation describes (Facebook's memcached traffic, §I/§III) are not
// public, so the skewed cells draw keys by Zipfian popularity.
//
// Its shape is fixed: memslap's defaults (8 clients, 4 KB values, 64
// keys) for the mixes; for the replay, 16 KB values (rendezvous-sized)
// in a cache of one slab page, which holds about fifty of the 4096 keys.
const (
	workloadClients = 8
	workloadSize    = 4096
	workloadKeys    = 64
	workloadZipf    = 0.99
	workloadPool    = 4 // servers in the ketama columns
	replayKeys      = 4096
	replaySize      = 16384
	replayCache     = 1 << 20
	replayGets      = 0.7 // the rest: 90% sets, 10% deletes
)

// WorkloadsReport is the workloads study.
type WorkloadsReport struct {
	Ops    int
	Mixes  []WorkloadsRow // mix x key order
	Replay []ReplayResult // one per transport
}

// WorkloadsRow is one (mix, key order) row of aggregate KTPS cells: per
// transport, one server and then a ketama pool.
type WorkloadsRow struct {
	Mix  Mix
	Keys string // "rr" or "zipf"
	KTPS []float64
}

// ReplayResult is one transport's eviction replay.
type ReplayResult struct {
	Transport     cluster.Transport
	Gets, Hits    int
	Evictions     uint64
	MeanUs, P99Us float64
}

// HitRate is hits per get.
func (r ReplayResult) HitRate() float64 { return float64(r.Hits) / float64(r.Gets) }

// WorkloadsSweep runs memslap's four mixes, round-robin and Zipfian, on
// each transport against one server and against a ketama pool, then the
// eviction replay on each transport.
func WorkloadsSweep(p *cluster.Profile, transports []cluster.Transport, cfg RunConfig) (*WorkloadsReport, error) {
	cfg = cfg.withDefaults()
	cfg.KeySpace = workloadKeys
	rep := &WorkloadsReport{Ops: cfg.OpsPerPoint}
	for mix := MixSet; mix <= MixInterleaved; mix++ {
		for _, zipf := range []float64{0, workloadZipf} {
			row := WorkloadsRow{Mix: mix, Keys: "rr"}
			if zipf > 0 {
				row.Keys = "zipf"
			}
			for _, t := range transports {
				for _, servers := range []int{1, workloadPool} {
					c := cfg
					c.Zipf, c.Deploy.Servers = zipf, servers
					tps, err := mixTPSPoint(p, t, workloadClients, workloadSize, mix, c)
					if err != nil {
						return nil, fmt.Errorf("%s %s: %w", t, mix, err)
					}
					row.KTPS = append(row.KTPS, tps/1e3)
				}
			}
			rep.Mixes = append(rep.Mixes, row)
		}
	}
	for _, t := range transports {
		r, err := ReplayPoint(p, t, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", t, err)
		}
		rep.Replay = append(rep.Replay, r)
	}
	return rep, nil
}

// ReplayPoint drives a seeded get/set/delete stream with Zipfian key
// popularity — generated in memory, one stream per client — against a
// cache too small for the keyspace, so the LRU evicts throughout: the
// hit rate is what the cache holds of the popularity mass, not 1.
func ReplayPoint(p *cluster.Profile, t cluster.Transport, cfg RunConfig) (ReplayResult, error) {
	cfg = cfg.withDefaults()
	// One page of cache under one LRU: with lock stripes each stripe
	// evicts only from its own list, and a page holds too few items for
	// every stripe to be sure of owning one.
	cfg.Deploy.MemoryLimit, cfg.Deploy.Stripes = replayCache, 1
	res := ReplayResult{Transport: t}
	err := withClients(p, t, workloadClients, cfg, func(d *cluster.Deployment, clients []*cluster.Client, clocks []*simnet.VClock) error {
		keys := make([]*Workload, len(clients))
		ops := make([]*simnet.Rand, len(clients))
		for i := range clients {
			keys[i] = NewZipfWorkload(cfg.Seed, uint64(i)+1, replayKeys, replaySize, workloadZipf)
			ops[i] = simnet.NewRand(cfg.Seed ^ uint64(i+1)<<32)
		}
		rec := &LatencyRecorder{}
		_, err := ClosedLoop(clocks, cfg.OpsPerPoint, rec, func(i, _ int) error {
			mc, key := clients[i].MC, keys[i].Key()
			switch r := ops[i].Float64(); {
			case r >= replayGets+(1-replayGets)*0.9:
				if err := mc.Delete(key); err != mcclient.ErrCacheMiss {
					return err
				}
			case r >= replayGets:
				return mc.Set(key, keys[i].Value(), 0, 0)
			default:
				res.Gets++
				if _, _, _, err := mc.Get(key); err == nil {
					res.Hits++
				} else if err != mcclient.ErrCacheMiss {
					return err
				}
			}
			return nil
		})
		res.Evictions = d.Server.Store().Stats().Evictions
		res.MeanUs, res.P99Us = rec.Mean(), rec.Percentile(99)
		return err
	})
	return res, err
}

// WorkloadsTable renders the report.
func WorkloadsTable(rep *WorkloadsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# memslap mixes: %d clients x %d ops, %d B values, %d keys round-robin (rr) or Zipf %.2f, cluster B (aggregate KTPS)\n",
		workloadClients, rep.Ops, workloadSize, workloadKeys, workloadZipf)
	fmt.Fprintf(&b, "# x1 = one server, x%dk = %d servers with ketama\n%-12s %-5s", workloadPool, workloadPool, "mix", "keys")
	for _, r := range rep.Replay {
		fmt.Fprintf(&b, " %12s %12s", r.Transport+" x1", fmt.Sprintf("%s x%dk", r.Transport, workloadPool))
	}
	for _, r := range rep.Mixes {
		fmt.Fprintf(&b, "\n%-12s %-5s", r.Mix, r.Keys)
		for _, v := range r.KTPS {
			fmt.Fprintf(&b, " %12.2f", v)
		}
	}
	fmt.Fprintf(&b, "\n# eviction replay: %d clients x %d ops, Zipf %.2f over %d keys, %.0f/%.0f/%.0f%% get/set/delete, %d B values, %d MB cache\n",
		workloadClients, rep.Ops, workloadZipf, replayKeys, replayGets*100, (1-replayGets)*90, (1-replayGets)*10, replaySize, replayCache>>20)
	fmt.Fprintf(&b, "%-8s %6s %6s %10s %10s %10s\n", "", "gets", "hit%", "evictions", "mean us", "p99 us")
	for _, r := range rep.Replay {
		fmt.Fprintf(&b, "%-8s %6d %6.1f %10d %10.2f %10.2f\n", r.Transport, r.Gets, r.HitRate()*100, r.Evictions, r.MeanUs, r.P99Us)
	}
	return b.String()
}
