package simnet

// Fault injection: a deterministic lossy-wire model that can be
// installed on a Fabric. Every message crossing the wire draws a
// verdict — delivered, dropped, or corrupted — from a seeded stream, so
// the transport layers above (verbs RC retransmission, TCP RTO
// emulation) can be exercised honestly and reproducibly.
//
// Determinism guarantee: each *directed node pair* owns an independent
// verdict stream derived from (seed, fromID, toID, per-pair message
// counter). As long as each directed pair's traffic is emitted by a
// single actor — true for every closed-loop benchmark in this repo —
// the verdict sequence is independent of goroutine interleaving across
// pairs, so a seeded run reproduces bit-identically.

// DeliveryOutcome is the wire's verdict on one message.
type DeliveryOutcome uint8

// Delivery outcomes.
const (
	// Delivered means the message arrived intact.
	Delivered DeliveryOutcome = iota
	// Dropped means the message was lost in the fabric: it consumed the
	// sender's uplink but never reached the receiver.
	Dropped
	// Corrupted means the message arrived but fails its checksum: it
	// consumed both links and is discarded at the receiver.
	Corrupted
)

func (o DeliveryOutcome) String() string {
	switch o {
	case Dropped:
		return "dropped"
	case Corrupted:
		return "corrupted"
	default:
		return "delivered"
	}
}

// FaultConfig parameterizes a FaultInjector.
type FaultConfig struct {
	// Seed keys every per-pair verdict stream. Zero is a valid seed.
	Seed uint64
	// DropRate is the per-message loss probability in [0, 1].
	DropRate float64
	// CorruptRate is the per-message corruption probability in [0, 1].
	// Drop is judged first; corruption applies to the remainder.
	CorruptRate float64
}

// pairKey names one directed node pair.
type pairKey struct{ from, to int }

// pairState is the per-directed-pair stream position plus any one-shot
// scheduled drops.
type pairState struct {
	n        uint64 // messages judged so far on this pair
	dropNext int    // one-shot: drop this many upcoming messages
}

// FaultInjector draws deterministic delivery verdicts. Install one on a
// Fabric with SetFaults; a nil injector (the default) keeps the fabric
// lossless and adds zero cost. Like the fabric, it is used under the
// deployment's owner (Executor.Enter).
type FaultInjector struct {
	cfg FaultConfig

	pairs       map[pairKey]*pairState
	partitioned map[pairKey]bool

	delivered uint64
	dropped   uint64
	corrupted uint64
}

// NewFaultInjector builds an injector for the given config.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{
		cfg:         cfg,
		pairs:       make(map[pairKey]*pairState),
		partitioned: make(map[pairKey]bool),
	}
}

// DropNext schedules a one-shot fault: the next n messages from→to are
// dropped regardless of the probabilistic rates.
func (fi *FaultInjector) DropNext(from, to *Node, n int) {
	fi.pair(pairKey{from.id, to.id}).dropNext += n
}

// Partition cuts both directions between a and b until Heal.
func (fi *FaultInjector) Partition(a, b *Node) {
	fi.partitioned[pairKey{a.id, b.id}] = true
	fi.partitioned[pairKey{b.id, a.id}] = true
}

// Heal removes a partition between a and b.
func (fi *FaultInjector) Heal(a, b *Node) {
	delete(fi.partitioned, pairKey{a.id, b.id})
	delete(fi.partitioned, pairKey{b.id, a.id})
}

// Stats reports verdict totals since construction.
func (fi *FaultInjector) Stats() (delivered, dropped, corrupted uint64) {
	return fi.delivered, fi.dropped, fi.corrupted
}

func (fi *FaultInjector) pair(k pairKey) *pairState {
	ps := fi.pairs[k]
	if ps == nil {
		ps = &pairState{}
		fi.pairs[k] = ps
	}
	return ps
}

// mix64 is the SplitMix64 finalizer, used as a hash.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// judge draws the verdict for the next message from→to.
func (fi *FaultInjector) judge(from, to *Node) DeliveryOutcome {
	k := pairKey{from.id, to.id}
	ps := fi.pair(k)
	ps.n++
	if fi.partitioned[k] {
		fi.dropped++
		return Dropped
	}
	if ps.dropNext > 0 {
		ps.dropNext--
		fi.dropped++
		return Dropped
	}
	if fi.cfg.DropRate <= 0 && fi.cfg.CorruptRate <= 0 {
		fi.delivered++
		return Delivered
	}
	// Per-pair stream: hash of (seed, pair, position). Independent of
	// goroutine interleaving across pairs.
	h := mix64(fi.cfg.Seed ^ mix64(uint64(k.from)<<32|uint64(uint32(k.to))) + ps.n*0x9e3779b97f4a7c15)
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < fi.cfg.DropRate:
		fi.dropped++
		return Dropped
	case u < fi.cfg.DropRate+fi.cfg.CorruptRate:
		fi.corrupted++
		return Corrupted
	default:
		fi.delivered++
		return Delivered
	}
}
