package main

import (
	"sync"
	"time"
)

// hostRef is a fixed piece of work owned by the benchmark — nothing a
// change to the repo can make faster — timed before, up to three times
// during and after every round's measured ops, with the round's clock
// stopped, to learn how fast the host is running at that moment.
// wall_ns_per_op and setup_s are reported at reference speed: each
// round's sample is multiplied by refNominal ÷ the mean of the round's
// passes.
//
// Why: on a small shared VM host time per op is not a property of the
// code alone. The same binary on the same inputs runs at anything from
// 1.0× to 2× its calm cost, in episodes of seconds to a quarter of an
// hour, and the calm cost itself drifts ±5%. Over sets of ten runs per
// workload, one process each, the quartiles of the unscaled number lay
// 5% to 49% of the median apart (README, "Why host time is scaled"),
// which no bound the driver accepts (≤ 25%) can hold; scaled, 1% to 9%.
// A lower quartile or minimum over a run's rounds does not help,
// because an episode outlasts a run.
//
// The loop mixes what the simulator does — dependent loads over 2 MB
// that the workload has just pushed out of the near caches, map
// lookups, an uncontended mutex, short copies — so an episode slows
// both by a similar factor. What matters most is that a pass starts
// cold, straight after the workload: of eight passes recorded around
// each round, the two cold ones tracked the workload's slowdown (spread
// of the ratio 5–8%) and the six warm ones that followed them did not
// (10–16%); hence single passes between parts of the stretch and never
// two in a row. The mix was found by trial: a 256 KB array slowed by
// half as much as the workload, an 8 MB one by twice as much even in
// calm periods. It is not exact: inside a heavy episode the scaled
// number is still 10–20% off, which is why the bound on wall_ns_per_op
// is 25%.
type hostRef struct {
	arr  []uint64
	m    map[uint64]uint64
	mu   sync.Mutex
	a, b []byte
	sink uint64
}

const (
	refWords = 1 << 18 // 2 MB of uint64
	refIters = 60_000
	// refNominal defines reference speed: a host on which a cold pass
	// takes this long, as the calm seed machine does. Scaled metrics read
	// as plain host ns and s on such a host; elsewhere only their ratio
	// between two commits means something.
	refNominal = 2 * time.Millisecond
)

func newHostRef() *hostRef {
	h := &hostRef{
		arr: make([]uint64, refWords), m: make(map[uint64]uint64, 4096),
		a: make([]byte, 512), b: make([]byte, 512),
	}
	for i := uint64(0); i < 4096; i++ {
		h.m[i*2654435761] = i
	}
	return h
}

// pass times one pass of the loop, in host ns.
func (h *hostRef) pass() float64 {
	var acc uint64
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		h.arr[j] += x
		if h.arr[j]&1 == 0 {
			acc += h.m[(x>>20&4095)*2654435761]
		}
		if i&7 == 0 {
			h.mu.Lock()
			copy(h.a, h.b)
			h.mu.Unlock()
		}
	}
	d := time.Since(t0)
	h.sink += acc
	return float64(d)
}

// hostSpeed is the factor that brings a host-time sample to reference
// speed, given the passes timed around it: below 1 when the host ran
// slower. The sample is a sum over its stretch, so the passes are
// averaged, not ranked.
func hostSpeed(passes []float64) float64 {
	var sum float64
	for _, p := range passes {
		sum += p
	}
	return float64(refNominal) * float64(len(passes)) / sum
}
