// Package cluster assembles simulated deployments that mirror the
// paper's two testbeds and wires Memcached servers and clients over any
// of the evaluated transports.
//
//   - Cluster A — Intel Clovertown: ConnectX DDR HCAs (16 Gb/s data
//     rate) on a Silverstorm DDR switch, Chelsio T320 10GigE with TOE on
//     a Fulcrum switch, plus 1GigE.
//   - Cluster B — Intel Westmere: ConnectX QDR HCAs (32 Gb/s data rate)
//     on a Mellanox QDR switch. No 10GigE cards (§VI-B).
//
// All cost-model constants for the verbs layer, the socket providers
// and the server live here, so calibration against the paper's figures
// is a single-file affair.
package cluster

import (
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// Transport names one evaluated network path, in the paper's legend.
type Transport string

// The paper's transport legend.
const (
	// UCRIB is the paper's design: Memcached over UCR over IB verbs.
	UCRIB Transport = "UCR-IB"
	// IPoIB is sockets over the IP-over-InfiniBand driver (connected
	// mode), no OS bypass (§II-A2).
	IPoIB Transport = "IPoIB"
	// SDP is the Sockets Direct Protocol, buffered (bcopy) mode — the
	// paper turns zero-copy off because it breaks non-blocking sockets
	// (§VI).
	SDP Transport = "SDP"
	// toe10G is 10 Gigabit Ethernet with hardware TCP offload.
	toe10G Transport = "10GigE-TOE"
	// tcp1G is plain kernel TCP over 1 Gigabit Ethernet.
	tcp1G Transport = "1GigE"
)

// Profile is one testbed's parameter set.
type Profile struct {
	// name is "A" or "B".
	name string
	// Transports lists the paths available on this cluster.
	Transports []Transport

	// IB fabric (always present).
	IB simnet.FabricSpec
	// HCA is the ConnectX generation's cost model.
	HCA verbs.Config
	// UCR tunes the runtime on this cluster.
	UCR ucr.Config
	// OpCost is the server's per-command processing cost (parse, hash,
	// LRU) on this cluster's CPUs, charged on every path.
	OpCost simnet.Duration

	// eth10G / eth1G are present when the cluster has those NICs.
	eth10G *simnet.FabricSpec
	eth1G  *simnet.FabricSpec

	// Socket provider cost models (nil when absent on the cluster).
	IPoIBModel  *sockstream.Provider
	sdpModel    *sockstream.Provider
	toe10GModel *sockstream.Provider
	tcp1GModel  *sockstream.Provider
}

// hasTransport reports whether the profile supports t.
func (p *Profile) hasTransport(t Transport) bool {
	for _, x := range p.Transports {
		if x == t {
			return true
		}
	}
	return false
}

// us is shorthand for microseconds in the parameter tables.
const us = simnet.Microsecond

// ClusterA is the Intel Clovertown testbed: ConnectX DDR + 10GigE TOE +
// 1GigE (§VI-A).
func ClusterA() *Profile {
	p := &Profile{
		name:       "A",
		Transports: []Transport{UCRIB, IPoIB, SDP, toe10G, tcp1G},
		IB: simnet.FabricSpec{
			Name:            "ib",
			LinkBytesPerSec: 2.0e9, // DDR: 16 Gb/s data rate
			Propagation:     300,
			SwitchDelay:     200,
			MTU:             2048,
		},
		HCA: verbs.Config{
			PostOverhead:      120,
			SendProc:          1200,
			RecvProc:          1200,
			RDMAProc:          1300,
			PollOverhead:      400,
			InterruptOverhead: 4 * us,
			RegBase:           1500,
			RegPerByte:        0.05,
			HeaderBytes:       30,
			AckTimeout:        12 * us,
			RNRTimer:          20 * us,
		},
		UCR: ucr.Config{
			EagerThreshold:  8192,
			Credits:         64,
			PackBytesPerSec: 4e9,
			HandlerOverhead: 400,
		},
		OpCost: 2200,
	}
	eth10 := simnet.FabricSpec{
		Name:            "eth10g",
		LinkBytesPerSec: 1.25e9, // 10 Gb/s
		Propagation:     500,
		SwitchDelay:     800,
		MTU:             9000,
	}
	eth1 := simnet.FabricSpec{
		Name:            "eth1g",
		LinkBytesPerSec: 0.125e9, // 1 Gb/s
		Propagation:     2 * us,
		SwitchDelay:     5 * us,
		MTU:             1500,
	}
	p.eth10G, p.eth1G = &eth10, &eth1

	p.IPoIBModel = &sockstream.Provider{
		Name:            string(IPoIB),
		RTOMin:          200 * simnet.Millisecond,
		SendSyscall:     9 * us,
		SendDeferred:    7 * us,
		RecvSyscall:     13 * us,
		RecvDeferred:    11 * us,
		SendCopies:      2,
		RecvCopies:      2,
		CopyBytesPerSec: 0.8e9,
		SegmentSize:     16384, // IPoIB-CM large MTU
		PerSegment:      3 * us,
		WireHeader:      58,
		ConnSetup:       30 * us,
	}
	p.sdpModel = &sockstream.Provider{
		Name:            string(SDP),
		RTOMin:          2 * simnet.Millisecond,
		SendSyscall:     8 * us,
		SendDeferred:    6 * us,
		RecvSyscall:     12 * us,
		RecvDeferred:    10 * us,
		SendCopies:      1, // bcopy mode: one private-buffer copy per side
		RecvCopies:      1,
		CopyBytesPerSec: 0.6e9,
		SegmentSize:     8192, // SDP private buffer size
		PerSegment:      4 * us,
		WireHeader:      50,
		ConnSetup:       50 * us,
	}
	p.toe10GModel = &sockstream.Provider{
		Name:            string(toe10G),
		RTOMin:          50 * simnet.Millisecond,
		SendSyscall:     7 * us,
		SendDeferred:    2 * us,
		RecvSyscall:     10 * us,
		RecvDeferred:    3 * us,
		SendCopies:      1,
		RecvCopies:      1,
		CopyBytesPerSec: 0.5e9,
		SegmentSize:     8948,
		PerSegment:      4 * us,
		WireHeader:      66,
		ConnSetup:       40 * us,
	}
	p.tcp1GModel = &sockstream.Provider{
		Name:            string(tcp1G),
		RTOMin:          200 * simnet.Millisecond,
		SendSyscall:     9 * us,
		SendDeferred:    4 * us,
		RecvSyscall:     14 * us,
		RecvDeferred:    6 * us,
		SendCopies:      2,
		RecvCopies:      2,
		CopyBytesPerSec: 2.5e9,
		SegmentSize:     1460,
		PerSegment:      1500,
		WireHeader:      66,
		ConnSetup:       60 * us,
	}
	return p
}

// ClusterB is the Intel Westmere testbed: ConnectX QDR only (§VI-A).
// The paper observed unexplained jitter with SDP on these adapters
// ("an implementation artifact of SDP on QDR"); the SDP model includes
// a matching deterministic jitter source.
func ClusterB() *Profile {
	p := &Profile{
		name:       "B",
		Transports: []Transport{UCRIB, IPoIB, SDP},
		IB: simnet.FabricSpec{
			Name:            "ib",
			LinkBytesPerSec: 4.0e9, // QDR: 32 Gb/s data rate
			Propagation:     250,
			SwitchDelay:     100,
			MTU:             2048,
		},
		HCA: verbs.Config{
			PostOverhead:      100,
			SendProc:          550,
			RecvProc:          550,
			RDMAProc:          650,
			PollOverhead:      250,
			InterruptOverhead: 3 * us,
			RegBase:           1200,
			RegPerByte:        0.04,
			HeaderBytes:       30,
			AckTimeout:        8 * us,
			RNRTimer:          16 * us,
		},
		UCR: ucr.Config{
			EagerThreshold:  8192,
			Credits:         64,
			PackBytesPerSec: 5e9,
			HandlerOverhead: 300,
		},
		OpCost: 900,
	}
	p.IPoIBModel = &sockstream.Provider{
		Name:            string(IPoIB),
		RTOMin:          200 * simnet.Millisecond,
		SendSyscall:     4 * us,
		SendDeferred:    6 * us,
		RecvSyscall:     5 * us,
		RecvDeferred:    9 * us,
		SendCopies:      2,
		RecvCopies:      2,
		CopyBytesPerSec: 2e9,
		SegmentSize:     16384,
		PerSegment:      3 * us,
		WireHeader:      58,
		ConnSetup:       30 * us,
	}
	p.sdpModel = &sockstream.Provider{
		Name:            string(SDP),
		RTOMin:          2 * simnet.Millisecond,
		SendSyscall:     3 * us,
		SendDeferred:    6 * us,
		RecvSyscall:     5 * us,
		RecvDeferred:    9 * us,
		SendCopies:      1,
		RecvCopies:      1,
		CopyBytesPerSec: 1.0e9,
		SegmentSize:     8192,
		PerSegment:      4 * us,
		WireHeader:      50,
		ConnSetup:       50 * us,
		// The QDR-SDP jitter the paper could not eliminate even with
		// 10,000-sample runs (§VI-B): occasional multi-10µs stalls.
		Jitter: func(r *simnet.Rand) simnet.Duration {
			if r.Intn(8) == 0 {
				return r.Duration(60 * us)
			}
			return r.Duration(3 * us)
		},
	}
	return p
}

// ProfileByName returns the profile for "A" or "B".
func ProfileByName(name string) *Profile {
	if name == "B" {
		return ClusterB()
	}
	return ClusterA()
}

// LossyFaults builds the fault-sweep injector configuration: a seeded,
// per-pair deterministic drop stream at dropPct percent loss. The same
// (dropPct, seed) always yields the same verdict sequence, so sweeps
// are reproducible run to run.
func LossyFaults(dropPct float64, seed uint64) *simnet.FaultConfig {
	return &simnet.FaultConfig{Seed: seed, DropRate: dropPct / 100}
}
