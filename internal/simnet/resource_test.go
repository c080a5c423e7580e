package simnet

import "testing"

// TestResourceSerializes: back-to-back offers queue behind each other,
// and the frontier model is exactly start = max(at, nextFree).
func TestResourceSerializes(t *testing.T) {
	r := NewResource("r")
	if got := r.Acquire(100, 50); got != 100 {
		t.Fatalf("idle acquire start = %d, want 100", got)
	}
	if got := r.Acquire(120, 50); got != 150 {
		t.Fatalf("contended acquire start = %d, want 150", got)
	}
	if got := r.Acquire(300, 50); got != 300 {
		t.Fatalf("post-idle acquire start = %d, want 300", got)
	}
	busy, uses := r.Stats()
	if busy != 150 || uses != 3 {
		t.Fatalf("stats = (%d, %d), want (150, 3)", busy, uses)
	}
}

// TestResourceBackfill: a request offered physically late but carrying
// an early virtual time books into capacity that was genuinely idle,
// instead of queueing behind a frontier another actor teleported ahead.
// This is what keeps simulated contention a function of modeled load
// rather than goroutine scheduling order.
func TestResourceBackfill(t *testing.T) {
	r := NewResource("r")
	// Actor A runs first physically: three ops at t=1000, 2000, 3000.
	for _, at := range []Time{1000, 2000, 3000} {
		if got := r.Acquire(at, 100); got != at {
			t.Fatalf("A acquire(%d) = %d, want %d", at, got, at)
		}
	}
	// Actor B arrives physically later with an earlier virtual time.
	// The resource was idle in [1100, 2000): B starts at its own time.
	if got := r.Acquire(1200, 100); got != 1200 {
		t.Fatalf("backfill acquire = %d, want 1200", got)
	}
	// A second backfill into the same gap queues within the gap's
	// remaining room ([1300, 2000) after B's booking).
	if got := r.Acquire(1250, 100); got != 1300 {
		t.Fatalf("second backfill acquire = %d, want 1300", got)
	}
	// A request too large for the first remaining fragment ([1400,2000),
	// 600 of room) takes the next gap with room: [2100,3000).
	if got := r.Acquire(1200, 700); got != 2100 {
		t.Fatalf("oversized acquire = %d, want 2100", got)
	}
	// One that fits no gap queues at the frontier.
	if got := r.Acquire(1200, 900); got != 3100 {
		t.Fatalf("unfittable acquire = %d, want frontier 3100", got)
	}
}

// TestResourceBackfillExactAndSplit covers gap bookkeeping: exact-fit
// consumption, front/back shrinking, and mid-gap splits.
func TestResourceBackfillExactAndSplit(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)    // busy [0,100)
	r.Acquire(1000, 100) // busy [1000,1100), gap [100,1000)
	// Split the middle: busy [400,500), gaps [100,400) and [500,1000).
	if got := r.Acquire(400, 100); got != 400 {
		t.Fatalf("mid-gap acquire = %d, want 400", got)
	}
	// Front of the first fragment.
	if got := r.Acquire(50, 100); got != 100 {
		t.Fatalf("front-of-gap acquire = %d, want 100", got)
	}
	// Exact fit of what is left of the first fragment [200,400).
	if got := r.Acquire(200, 200); got != 200 {
		t.Fatalf("exact-fit acquire = %d, want 200", got)
	}
	// First fragment is gone; the next early offer lands in [500,1000).
	if got := r.Acquire(0, 300); got != 500 {
		t.Fatalf("next-gap acquire = %d, want 500", got)
	}
}

// TestResourceMonotoneCallerUnchanged: an actor whose offered times are
// nondecreasing and never below the frontier sees bit-identical results
// to the plain frontier model — single-flow runs are unaffected by the
// gap machinery.
func TestResourceMonotoneCallerUnchanged(t *testing.T) {
	r := NewResource("r")
	var frontier Time
	at := Time(0)
	for i := 0; i < 1000; i++ {
		at += Time(7 + i%13)
		dur := Duration(3 + i%5)
		want := MaxTime(at, frontier)
		if got := r.Acquire(at, dur); got != want {
			t.Fatalf("step %d: acquire(%d) = %d, want %d", i, at, got, want)
		}
		frontier = want + dur
	}
	if got := r.nextFree; got != frontier {
		t.Fatalf("nextFree = %d, want %d", got, frontier)
	}
}

// TestResourceGapListBounded interleaves two out-of-order actors — A
// racing ahead and leaving an idle gap per op, B trailing and booking
// into the middle of A's latest gap, which splits it — for 10⁵ acquires
// each, with a far laggard C occasionally splitting the EARLIEST
// remembered gap. Every path that grows the gap list must respect the
// bound, or the list (and every later acquire's scan) grows with the ops
// served; and forgetting must leave the list sorted and disjoint.
func TestResourceGapListBounded(t *testing.T) {
	r := NewResource("r")
	for i := 1; i <= 100_000; i++ {
		at := Time(i) * 1000
		if got := r.Acquire(at, 100); got != at {
			t.Fatalf("A acquire(%d) = %d", at, got)
		}
		if got := r.Acquire(at-500, 10); got != at-500 {
			t.Fatalf("B acquire(%d) = %d, want a mid-gap backfill", at-500, got)
		}
		if g := r.gaps[0]; i%100 == 0 && g.to-g.from >= 3 {
			if c := g.from + 1; r.Acquire(c, 1) != c {
				t.Fatalf("C acquire(%d) did not land in the earliest gap %+v", c, g)
			}
		}
		if n := len(r.gaps); n > maxGaps {
			t.Fatalf("after %d rounds: %d gaps remembered, bound is %d", i, n, maxGaps)
		}
	}
	for k := 1; k < len(r.gaps); k++ {
		if r.gaps[k-1].from >= r.gaps[k-1].to || r.gaps[k-1].to > r.gaps[k].from {
			t.Fatalf("gaps %d,%d out of order: %+v %+v", k-1, k, r.gaps[k-1], r.gaps[k])
		}
	}
}
