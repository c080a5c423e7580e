package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// One-sided GET study: the same 100%-get workload measured with the
// server-bypassing RDMA-read path on and off. Small values favor
// one-sided — the client trades the server's dispatch + op cost plus the
// reply AM for two short RDMA reads (bucket, entry re-read) pipelined
// around the value read. Large values favor the AM rendezvous, which
// lands the value with a zero-copy RDMA read anyway while the one-sided
// client still pays a [key||value] copy-out; wherever the curves cross
// is the size above which clients should stop going one-sided.

// oneSidedPoint is one value size measured both ways.
type oneSidedPoint struct {
	valueSize  int
	oneSidedUs float64
	amUs       float64
	// speedup is AM÷one-sided mean latency: >1 means one-sided wins.
	speedup float64
}

// oneSidedTPSPoint compares aggregate closed-loop throughput at one
// client count (tpsValueSize-byte gets).
type oneSidedTPSPoint struct {
	clients     int
	oneSidedTPS float64
	amtps       float64
}

// OneSidedReport is the latency sweep plus the aggregate-TPS
// comparison.
type OneSidedReport struct {
	points []oneSidedPoint
	// crossoverBytes is the smallest swept size where the AM path is at
	// least as fast (0: one-sided won at every swept size).
	crossoverBytes int
	// tps sweeps client counts at tpsValueSize-byte gets. One-sided wins
	// alone (no server CPU in the path) but stops scaling early: each get
	// is 2-3 RDMA reads through the responder HCA's engine, which
	// saturates at about four clients' worth, while the AM path batches
	// on that engine and spreads over the server's workers.
	// crossoverClients is the first count where AM wins (0: never).
	tpsValueSize     int
	tps              []oneSidedTPSPoint
	crossoverClients int
}

// OneSidedSizes is the default value-size axis.
func OneSidedSizes() []int { return []int{4, 64, 256, 1024, 4096, 16384, 65536} }

// oneSidedLatencyPoint measures mean get latency at one size with the
// one-sided path on or off (cluster B, UCR-IB, single client).
func oneSidedLatencyPoint(size int, oneSided bool, cfg RunConfig) (float64, error) {
	deploy := cfg.Deploy
	deploy.OneSidedGet = oneSided
	rec, err := latencyPoint(cluster.ClusterB(), cluster.UCRIB, MixGet, size,
		RunConfig{OpsPerPoint: cfg.OpsPerPoint, keySpace: cfg.keySpace, seed: cfg.seed, Deploy: deploy})
	if err != nil {
		return 0, err
	}
	return rec.Mean(), nil
}

// OneSidedSweep runs the full study: the latency axis both ways, the
// crossover, and the aggregate-TPS comparison.
func OneSidedSweep(sizes []int, cfg RunConfig) (*OneSidedReport, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = OneSidedSizes()
	}
	rep := &OneSidedReport{tpsValueSize: 64}
	for _, size := range sizes {
		osUs, err := oneSidedLatencyPoint(size, true, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: onesided size %d: %w", size, err)
		}
		amUs, err := oneSidedLatencyPoint(size, false, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: am size %d: %w", size, err)
		}
		pt := oneSidedPoint{valueSize: size, oneSidedUs: osUs, amUs: amUs}
		if osUs > 0 {
			pt.speedup = amUs / osUs
		}
		rep.points = append(rep.points, pt)
		if rep.crossoverBytes == 0 && amUs <= osUs {
			rep.crossoverBytes = size
		}
	}

	tps := func(oneSided bool, clients int) (float64, error) {
		deploy := cfg.Deploy
		deploy.OneSidedGet = oneSided
		return tpsPoint(cluster.ClusterB(), cluster.UCRIB, clients, rep.tpsValueSize,
			RunConfig{OpsPerPoint: cfg.OpsPerPoint, keySpace: cfg.keySpace, seed: cfg.seed, Deploy: deploy})
	}
	for _, n := range []int{1, 2, 4, 8} {
		osTPS, err := tps(true, n)
		if err != nil {
			return nil, err
		}
		amTPS, err := tps(false, n)
		if err != nil {
			return nil, err
		}
		rep.tps = append(rep.tps, oneSidedTPSPoint{clients: n, oneSidedTPS: osTPS, amtps: amTPS})
		if rep.crossoverClients == 0 && amTPS >= osTPS {
			rep.crossoverClients = n
		}
	}
	return rep, nil
}

// OneSidedTable renders the report for the terminal.
func OneSidedTable(rep *OneSidedReport) string {
	var b strings.Builder
	b.WriteString("# one-sided GET vs AM GET: 100% gets, cluster B, UCR-IB (mean latency)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "value", "one-sided us", "AM us", "speedup")
	for _, pt := range rep.points {
		fmt.Fprintf(&b, "%-10d %12.2f %12.2f %8.2fx\n", pt.valueSize, pt.oneSidedUs, pt.amUs, pt.speedup)
	}
	if rep.crossoverBytes > 0 {
		fmt.Fprintf(&b, "latency crossover: AM wins from %d-byte values\n", rep.crossoverBytes)
	} else {
		b.WriteString("latency crossover: none in swept range (one-sided won every size)\n")
	}
	fmt.Fprintf(&b, "# aggregate TPS, %dB gets\n", rep.tpsValueSize)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "clients", "one-sided", "AM")
	for _, pt := range rep.tps {
		fmt.Fprintf(&b, "%-10d %12.0f %12.0f\n", pt.clients, pt.oneSidedTPS, pt.amtps)
	}
	if rep.crossoverClients > 0 {
		fmt.Fprintf(&b, "TPS crossover: AM wins from %d clients\n", rep.crossoverClients)
	} else {
		b.WriteString("TPS crossover: none in swept range (one-sided won every count)\n")
	}
	return b.String()
}
