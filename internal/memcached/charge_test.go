package memcached

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/simnet"
)

// TestItemSize pins the item header at 112 B. The key and value live
// only in the item's chunk, so the header holds their lengths, not a
// string and a slice; the chunk packs its class and segment place into
// one word beside its buffer; and the key length rides in the padding
// after linked.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(item{}) = %d, want 112", got)
	}
}

// TestChargeMatchesTwoHolds: an op booked in its own shard hold charges
// exactly what the old two holds did — a lock wait booked on the
// stripe's resource, then the op at the time its frontend gave. Two
// workers interleave on one stripe, so waits are real; a reference
// simnet.Resource is booked the old way beside a bare store run at the
// reference times, and every clock advance, result and value must
// agree. An item expiring inside a wait makes the lookup's time
// visible: UCR looks up when its wait ends, sockets before it.
func TestChargeMatchesTwoHolds(t *testing.T) {
	const (
		opCost   = 2 * simnet.Microsecond
		copyRate = 1e9
		serve    = 700 * simnet.Nanosecond // the worker's own per-op work
	)
	s := NewStore(StoreConfig{})
	s.opCost, s.copyRate = opCost, copyRate
	ref := NewStore(StoreConfig{})
	res := simnet.NewResource("reference stripe")

	// Both stores hold the same items; "ttl" expires at 1 s, which the
	// workers straddle.
	start := simnet.Second - 9*simnet.Microsecond
	for _, st := range []*Store{s, ref} {
		st.store(StoreOpSet, []byte("ttl"), 0, 1, []byte("short-lived"), 0, at(0))
		for i := 0; i < 4; i++ {
			st.store(StoreOpSet, []byte(fmt.Sprintf("k%d", i)), 0, 0, bytes.Repeat([]byte{'a' + byte(i)}, 100*(i+1)), 0, at(0))
		}
	}
	clks := []*simnet.VClock{simnet.NewVClock(start), simnet.NewVClock(start + 300)}
	refNow := []simnet.Time{start, start + 300}

	// wait books one hold the old way: acquired at `at`, the queueing
	// wait is what the caller's clock gains.
	wait := func(at simnet.Time, copied int) (simnet.Duration, simnet.Time) {
		hold := opCost + simnet.BytesDuration(copied, copyRate)
		w := res.Acquire(at, hold) - at
		return w, at + w + hold
	}

	type op struct {
		w    int
		kind string
		keys []string
		val  string
	}
	script := []op{
		{0, "ucr get", []string{"k1"}, ""},
		{1, "ucr get", []string{"k1"}, ""},
		{0, "text set", []string{"k2"}, "a text set value"},
		{1, "ucr set", []string{"k3"}, "a ucr set value"},
		{0, "text mget", []string{"k0", "k1", "nope", "k2"}, ""},
		{1, "text get", []string{"ttl"}, ""},
		{0, "ucr get", []string{"ttl"}, ""},
		{1, "text get", []string{"k3"}, ""},
		{0, "ucr set", []string{"k0"}, "again"},
		{1, "text mget", []string{"k3", "k0"}, ""},
		{0, "text get", []string{"ttl"}, ""},
		{1, "ucr get", []string{"ttl"}, ""},
	}
	var waited simnet.Duration
	straddled := map[string]bool{} // frontend → a "ttl" lookup whose wait crossed its expiry
	for i, o := range script {
		clk, now := clks[o.w], refNow[o.w]
		before := clk.Now()
		if before != now {
			t.Fatalf("op %d (%s): worker %d at %v, reference at %v", i, o.kind, o.w, before, now)
		}
		var got, want string
		switch o.kind {
		case "ucr get":
			key := []byte(o.keys[0])
			if it, ok := s.getPinned(key, chargeFirst(clk)); ok {
				got = string(it.value())
				s.unpin(it)
			}
			w, _ := wait(now, 0)
			now += w
			if it, ok := ref.getPinned(key, at(now)); ok {
				want = string(it.value())
				ref.unpin(it)
			}
		case "ucr set":
			key, v := []byte(o.keys[0]), []byte(o.val)
			it, r := s.allocateItem(key, 0, 0, len(v), clk.Now())
			copy(it.value(), v)
			s.commitItem(it, chargeFirst(clk))
			rit, rr := ref.allocateItem(key, 0, 0, len(v), now)
			copy(rit.value(), v)
			w, _ := wait(now, 0)
			now += w
			ref.commitItem(rit, at(now))
			got, want = r.String(), rr.String()
		case "text set":
			key, v := []byte(o.keys[0]), []byte(o.val)
			got = s.store(StoreOpSet, key, 0, 0, v, 0, chargeAfter(clk, clk.Now())).String()
			want = ref.store(StoreOpSet, key, 0, 0, v, 0, at(now)).String()
			w, _ := wait(now, len(v))
			now += w
		case "text get", "text mget":
			cursor, refCursor := clk.Now(), now
			for _, k := range o.keys {
				var hit bool
				hit, cursor = s.view([]byte(k), chargeAfter(clk, cursor), func(it *item) { got += k + "=" + string(it.value()) + ";" })
				copied := 0
				ref.view([]byte(k), at(now), func(it *item) {
					want += k + "=" + string(it.value()) + ";"
					copied = len(it.value())
				})
				w, end := wait(refCursor, copied)
				now, refCursor = now+w, end
				if cursor != refCursor {
					t.Errorf("op %d (%s) key %s: hit %v, hold ends at %v, reference %v", i, o.kind, k, hit, cursor, refCursor)
				}
			}
		}
		waited += clk.Now() - before
		if o.keys[0] == "ttl" && before < simnet.Second && clk.Now() >= simnet.Second {
			straddled[o.kind[:3]] = true
		}
		if clk.Now() != now || got != want {
			t.Errorf("op %d (%s %v) on worker %d: clock +%v → %q; reference +%v → %q",
				i, o.kind, o.keys, o.w, clk.Now()-before, got, now-before, want)
		}
		clk.Advance(serve)
		refNow[o.w] = now + serve
	}
	if waited == 0 || !straddled["ucr"] || !straddled["tex"] {
		t.Fatalf("waited %v, expiry inside a wait %v: the script no longer tells the lookup times apart", waited, straddled)
	}
	if st, rst := s.Stats(), ref.Stats(); st != rst {
		t.Errorf("stats %+v, reference %+v", st, rst)
	}
	busy, uses := s.LockStats()
	if rb, ru := res.Stats(); busy != rb || uses != ru {
		t.Errorf("lock stats (%v, %d), reference (%v, %d)", busy, uses, rb, ru)
	}
}
