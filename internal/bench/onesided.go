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

// OneSidedPoint is one value size measured both ways.
type OneSidedPoint struct {
	ValueSize  int
	OneSidedUs float64
	AMUs       float64
	// Speedup is AM÷one-sided mean latency: >1 means one-sided wins.
	Speedup float64
}

// OneSidedTPSPoint compares aggregate closed-loop throughput at one
// client count (TPSValueSize-byte gets).
type OneSidedTPSPoint struct {
	Clients     int
	OneSidedTPS float64
	AMTPS       float64
}

// OneSidedReport is the latency sweep plus the aggregate-TPS
// comparison.
type OneSidedReport struct {
	Points []OneSidedPoint
	// CrossoverBytes is the smallest swept size where the AM path is at
	// least as fast (0: one-sided won at every swept size).
	CrossoverBytes int
	// TPS sweeps client counts at TPSValueSize-byte gets. One-sided wins
	// alone (no server CPU in the path) but stops scaling early: each get
	// is 2-3 RDMA reads through the responder HCA's engine, which
	// saturates at about four clients' worth, while the AM path batches
	// on that engine and spreads over the server's workers.
	// CrossoverClients is the first count where AM wins (0: never).
	TPSValueSize     int
	TPS              []OneSidedTPSPoint
	CrossoverClients int
}

// OneSidedSizes is the default value-size axis.
func OneSidedSizes() []int { return []int{4, 64, 256, 1024, 4096, 16384, 65536} }

// OneSidedLatencyPoint measures mean get latency at one size with the
// one-sided path on or off (cluster B, UCR-IB, single client).
func OneSidedLatencyPoint(size int, oneSided bool, cfg RunConfig) (float64, error) {
	deploy := cfg.Deploy
	deploy.OneSidedGet = oneSided
	rec, err := LatencyPoint(cluster.ClusterB(), cluster.UCRIB, MixGet, size,
		RunConfig{OpsPerPoint: cfg.OpsPerPoint, KeySpace: cfg.KeySpace, Seed: cfg.Seed, Deploy: deploy})
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
	rep := &OneSidedReport{TPSValueSize: 64}
	for _, size := range sizes {
		osUs, err := OneSidedLatencyPoint(size, true, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: onesided size %d: %w", size, err)
		}
		amUs, err := OneSidedLatencyPoint(size, false, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: am size %d: %w", size, err)
		}
		pt := OneSidedPoint{ValueSize: size, OneSidedUs: osUs, AMUs: amUs}
		if osUs > 0 {
			pt.Speedup = amUs / osUs
		}
		rep.Points = append(rep.Points, pt)
		if rep.CrossoverBytes == 0 && amUs <= osUs {
			rep.CrossoverBytes = size
		}
	}

	tps := func(oneSided bool, clients int) (float64, error) {
		deploy := cfg.Deploy
		deploy.OneSidedGet = oneSided
		return TPSPoint(cluster.ClusterB(), cluster.UCRIB, clients, rep.TPSValueSize,
			RunConfig{OpsPerPoint: cfg.OpsPerPoint, KeySpace: cfg.KeySpace, Seed: cfg.Seed, Deploy: deploy})
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
		rep.TPS = append(rep.TPS, OneSidedTPSPoint{Clients: n, OneSidedTPS: osTPS, AMTPS: amTPS})
		if rep.CrossoverClients == 0 && amTPS >= osTPS {
			rep.CrossoverClients = n
		}
	}
	return rep, nil
}

// OneSidedTable renders the report for the terminal.
func OneSidedTable(rep *OneSidedReport) string {
	var b strings.Builder
	b.WriteString("# one-sided GET vs AM GET: 100% gets, cluster B, UCR-IB (mean latency)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "value", "one-sided us", "AM us", "speedup")
	for _, pt := range rep.Points {
		fmt.Fprintf(&b, "%-10d %12.2f %12.2f %8.2fx\n", pt.ValueSize, pt.OneSidedUs, pt.AMUs, pt.Speedup)
	}
	if rep.CrossoverBytes > 0 {
		fmt.Fprintf(&b, "latency crossover: AM wins from %d-byte values\n", rep.CrossoverBytes)
	} else {
		b.WriteString("latency crossover: none in swept range (one-sided won every size)\n")
	}
	fmt.Fprintf(&b, "# aggregate TPS, %dB gets\n", rep.TPSValueSize)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "clients", "one-sided", "AM")
	for _, pt := range rep.TPS {
		fmt.Fprintf(&b, "%-10d %12.0f %12.0f\n", pt.Clients, pt.OneSidedTPS, pt.AMTPS)
	}
	if rep.CrossoverClients > 0 {
		fmt.Fprintf(&b, "TPS crossover: AM wins from %d clients\n", rep.CrossoverClients)
	} else {
		b.WriteString("TPS crossover: none in swept range (one-sided won every count)\n")
	}
	return b.String()
}
