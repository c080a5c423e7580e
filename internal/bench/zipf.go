package bench

import (
	"math"

	"repro/internal/simnet"
)

// zipf is a Zipfian key-popularity sampler. The paper's motivation is
// exactly this traffic: social-network reads where a small hot set
// dominates (Facebook's memcached fleet, §I). Production traces are not
// available, so skewed synthetic popularity is the standard stand-in.
//
// The sampler precomputes the CDF over n ranks with exponent s>0
// (s≈0.99 matches the classical web/memcached measurements) and draws
// by binary search, so sampling is O(log n) with no rejection loop and
// fully deterministic given the Rand.
type zipf struct {
	cdf []float64
	rng *simnet.Rand
}

// newZipf builds a sampler over ranks [0, n) with exponent s.
func newZipf(rng *simnet.Rand, s float64, n int) *zipf {
	if n < 1 {
		n = 1
	}
	z := &zipf{cdf: make([]float64, n), rng: rng}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// next draws a rank: 0 is the hottest key.
func (z *zipf) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newZipfWorkload builds a skewed workload over nKeys keys of the given
// value size: Key draws by popularity instead of round-robin. keySeed
// fixes the keyspace (share it across clients so a populated cache
// hits); samplerSeed varies each client's draw order.
func newZipfWorkload(keySeed, samplerSeed uint64, nKeys, size int, s float64) *workload {
	w := newWorkload(keySeed, nKeys, size)
	w.zipf = newZipf(simnet.NewRand(samplerSeed^0x5eed), s, nKeys)
	return w
}
