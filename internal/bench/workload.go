package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// Mix is an instruction mix from §VI.
type Mix int

// The paper's four workloads.
const (
	// MixSet is 100% Set (Figs 3a/3b, 4a/4b).
	MixSet Mix = iota
	// MixGet is 100% Get (Figs 3c/3d, 4c/4d, 6).
	MixGet
	// MixNonInterleaved is 10% Set / 90% Get as 10 sets then 90 gets
	// (Fig 5a/5b).
	MixNonInterleaved
	// MixInterleaved is 50% Set / 50% Get, alternating (Fig 5c/5d).
	MixInterleaved
)

func (m Mix) String() string {
	switch m {
	case MixSet:
		return "set"
	case MixGet:
		return "get"
	case MixNonInterleaved:
		return "set10-get90"
	default:
		return "set50-get50"
	}
}

// isSet reports whether operation n of the mix's stream is a set.
func (m Mix) isSet(n int) bool {
	switch m {
	case MixSet:
		return true
	case MixGet:
		return false
	case MixNonInterleaved:
		return n%100 < 10
	default:
		return n%2 == 0
	}
}

// Workload generates keys and values, memslap-style: fixed-length keys
// drawn from a seeded keyspace — round-robin, or by Zipfian popularity
// (newZipfWorkload) — and incompressible values of the swept size.
type Workload struct {
	rng     *simnet.Rand
	keys    []string
	value   []byte
	nextKey int
	zipf    *Zipf // nil: round-robin
}

// newWorkload builds a workload over nKeys keys with size-byte values.
func newWorkload(seed uint64, nKeys, size int) *Workload {
	w := &Workload{rng: simnet.NewRand(seed)}
	w.keys = make([]string, nKeys)
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("memslap-%016x-%04d", w.rng.Uint64(), i)
	}
	w.value = make([]byte, size)
	for i := range w.value {
		w.value[i] = byte(w.rng.Uint64())
	}
	return w
}

// key returns the next key: round-robin, or a popularity draw.
func (w *Workload) key() string {
	if w.zipf != nil {
		return w.keys[w.zipf.next()]
	}
	k := w.keys[w.nextKey%len(w.keys)]
	w.nextKey++
	return k
}

// populate stores the payload under every key, so gets hit and sets
// overwrite (steady-state behaviour).
func (w *Workload) populate(mc *mcclient.Client) error {
	for _, k := range w.keys {
		if err := mc.Set(k, w.value, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// op issues one operation on the next key: a set of the payload, or a
// get.
func (w *Workload) op(mc *mcclient.Client, set bool) error {
	key := w.key()
	if set {
		return mc.Set(key, w.value, 0, 0)
	}
	_, _, _, err := mc.Get(key)
	return err
}

// runClient populates the keyspace and executes n operations of the mix
// on one client, recording per-op latency.
func runClient(c *cluster.Client, w *Workload, mix Mix, n int, rec *LatencyRecorder) error {
	if err := w.populate(c.MC); err != nil {
		return err
	}
	_, err := ClosedLoop([]*simnet.VClock{c.Clock}, n, rec, func(_, lap int) error {
		return w.op(c.MC, mix.isSet(lap))
	})
	return err
}
