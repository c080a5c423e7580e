package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist counts virtual-time latencies without keeping samples: exact to
// 1 ns below 2^17 ns (131 µs, which covers every depth-1 latency of
// both transports) and to 1 part in 1024 above, so percentiles of a
// same-seed run are bit-identical and recording never allocates.
type hist struct {
	n     uint64
	sum   int64
	exact []uint32 // value v at index v, v < histExact
	tail  []uint32 // log-linear buckets above
}

const (
	histExactBits = 17
	histExact     = 1 << histExactBits
	histSubBits   = 10
	histMaxBits   = 44 // 2^44 ns ≈ 4.9 virtual hours
)

func newHist() hist {
	return hist{
		exact: make([]uint32, histExact),
		tail:  make([]uint32, (histMaxBits-histExactBits)<<histSubBits),
	}
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	h.sum += ns
	if ns < histExact {
		h.exact[ns]++
		return
	}
	e := bits.Len64(uint64(ns)) - 1
	if e >= histMaxBits {
		h.tail[len(h.tail)-1]++
		return
	}
	sub := int(ns>>(uint(e)-histSubBits)) & (1<<histSubBits - 1)
	h.tail[(e-histExactBits)<<histSubBits|sub]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.exact {
		h.exact[i] += c
	}
	for i, c := range o.tail {
		h.tail[i] += c
	}
}

// quantile returns the smallest recorded value with at least q of the
// samples at or below it (lower bucket bound in the tail), in ns.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for v, c := range h.exact {
		if seen += uint64(c); seen >= rank {
			return float64(v)
		}
	}
	for i, c := range h.tail {
		if seen += uint64(c); seen >= rank {
			e := uint(i>>histSubBits) + histExactBits
			sub := uint64(i & (1<<histSubBits - 1))
			return float64(1<<e | sub<<(e-histSubBits))
		}
	}
	return math.Inf(1)
}

// mean is exact: the sum is kept beside the buckets.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf interpolates linearly between order statistics.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}
