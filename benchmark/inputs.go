package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// splitmix is the benchmark's own generator, so inputs depend on the
// seed alone and on no package under test.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n) (n far below 2^32, so the bias of the
// multiply-shift reduction is below 2^-30).
func (s *splitmix) intn(n int) int {
	return int((s.next() >> 32) * uint64(n) >> 32)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// value is the one correct answer for key at this size: a pure function
// of both, so a GET can be checked no matter which client wrote last.
func value(key string, size int) []byte {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	g := splitmix(h ^ uint64(size))
	out := make([]byte, size)
	for i := 0; i < size; i += 8 {
		w := g.next()
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(w >> (8 * j))
		}
	}
	return out
}

// inputs is everything a run feeds the system, made from the seed
// before any timer starts.
type inputs struct {
	w    *workload
	seed uint64
	keys []string
	vals [][]byte  // vals[i] == value(keys[i], w.ValueSize)
	cdf  []float64 // Zipf cumulative weights by rank (nil when uniform)

	scheds []*schedule // one per client, carried from round to round
}

func newInputs(w *workload, seed uint64) *inputs {
	in := &inputs{w: w, seed: seed, keys: make([]string, w.Keys), vals: make([][]byte, w.Keys)}
	g := splitmix(seed*0x9e3779b97f4a7c15 + 1)
	for i := range in.keys {
		a, b := g.next(), g.next()
		// Index prefix keeps keys distinct; the seeded tail varies in
		// content and length (17–33 bytes) like real cache keys do.
		in.keys[i] = fmt.Sprintf("%04x:%016x%016x", i, a, b)[:17+int(b%17)]
		in.vals[i] = value(in.keys[i], w.ValueSize)
	}
	if w.Zipf > 0 {
		in.cdf = make([]float64, w.Keys)
		var sum float64
		for r := range in.cdf {
			sum += 1 / math.Pow(float64(r+1), w.Zipf)
			in.cdf[r] = sum
		}
		for r := range in.cdf {
			in.cdf[r] /= sum
		}
	}
	return in
}

// schedule yields one client's op stream: whether the next op is a SET
// and which key it touches.
type schedule struct {
	in  *inputs
	rng splitmix
	n   int
}

func (in *inputs) schedule(client int) *schedule {
	return &schedule{in: in, rng: splitmix(in.seed ^ uint64(client+1)*0xd1342543de82ef95), n: client}
}

// schedules returns the run's per-client op streams. They persist
// across the fresh deployments of a run, so every round sees new draws.
func (in *inputs) schedules() []*schedule {
	for i := len(in.scheds); i < in.w.Clients; i++ {
		in.scheds = append(in.scheds, in.schedule(i))
	}
	return in.scheds
}

func (s *schedule) next() (isSet bool, k int) {
	w := s.in.w
	n := s.n
	s.n++
	if w.FixedMix {
		return n%100 < w.SetPct, n % w.Keys
	}
	isSet = w.SetPct > 0 && s.rng.intn(100) < w.SetPct
	if s.in.cdf != nil {
		return isSet, sort.SearchFloat64s(s.in.cdf, s.rng.float())
	}
	return isSet, s.rng.intn(w.Keys)
}

// tally is the correctness oracle's ledger for one phase, plus the
// virtual-time latency distributions.
type tally struct {
	gets, sets int
	errs       int // transport or client errors
	misses     int // GET of a populated key that missed
	corrupt    int // GET whose bytes differ from value(key)
	notStored  int // SET answered anything but Stored
	getLat     hist
	setLat     hist
}

// newTally allocates the histograms up front, so recording inside a
// measured phase never allocates.
func newTally() tally { return tally{getLat: newHist(), setLat: newHist()} }

func (t *tally) ops() int    { return t.gets + t.sets }
func (t *tally) failed() int { return t.errs + t.misses + t.corrupt + t.notStored }

// checkGet records one GET outcome against the expected bytes.
func (t *tally) checkGet(got, want []byte, hit bool, err error) {
	t.gets++
	switch {
	case err != nil:
		t.errs++
	case !hit:
		t.misses++
	case !bytes.Equal(got, want):
		t.corrupt++
	}
}

// checkSet records one SET outcome; stored is false for any result
// other than Stored.
func (t *tally) checkSet(stored bool, err error) {
	t.sets++
	switch {
	case err != nil:
		t.errs++
	case !stored:
		t.notStored++
	}
}

func (t *tally) merge(o *tally) {
	t.gets += o.gets
	t.sets += o.sets
	t.errs += o.errs
	t.misses += o.misses
	t.corrupt += o.corrupt
	t.notStored += o.notStored
	t.getLat.merge(&o.getLat)
	t.setLat.merge(&o.setLat)
}
