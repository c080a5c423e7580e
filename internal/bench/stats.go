// Package bench is the measurement suite: the paper's §VI benchmarks,
// rebuilt against the standard client API. The authors note that the
// stock memslap tool bypasses libmemcached and speaks raw sockets, so —
// like them — we measure through the client library itself.
package bench

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simnet"
)

// LatencyRecorder accumulates per-operation virtual-time samples.
type LatencyRecorder struct {
	samples []simnet.Duration
	sum     simnet.Duration
}

// record adds one sample.
func (r *LatencyRecorder) record(d simnet.Duration) {
	r.samples = append(r.samples, d)
	r.sum += d
}

// Mean reports the average sample in microseconds.
func (r *LatencyRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return float64(r.sum) / float64(len(r.samples)) / 1e3
}

// Min reports the smallest sample in microseconds.
func (r *LatencyRecorder) Min() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	min := r.samples[0]
	for _, s := range r.samples[1:] {
		if s < min {
			min = s
		}
	}
	return s2us(min)
}

// Max reports the largest sample in microseconds.
func (r *LatencyRecorder) Max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	max := r.samples[0]
	for _, s := range r.samples[1:] {
		if s > max {
			max = s
		}
	}
	return s2us(max)
}

// Percentile reports the p-th percentile (0 < p <= 100) in microseconds,
// by nearest rank: the smallest sample at least p% of the samples do not
// exceed.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := make([]simnet.Duration, len(r.samples))
	copy(sorted, r.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return s2us(sorted[idx])
}

// Jitter reports max-min in microseconds (the paper's QDR-SDP
// observation is about exactly this spread).
func (r *LatencyRecorder) Jitter() float64 { return r.Max() - r.Min() }

func s2us(d simnet.Duration) float64 { return float64(d) / 1e3 }

// sizeLabel formats a message size the way the paper's axes do.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// SmallSizes are the paper's small-message sweep (Figs 3a/3c, 4a/4c, 5).
var SmallSizes = []int{1, 4, 16, 64, 256, 1024, 2048, 4096}

// LargeSizes are the paper's large-message sweep (Figs 3b/3d, 4b/4d).
var LargeSizes = []int{8192, 16384, 32768, 65536, 131072, 262144, 524288}
