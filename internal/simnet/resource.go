package simnet

// Resource is a shared serialization point in the simulated system: one
// direction of a link, a NIC DMA engine, a TOE processing pipeline, a
// lock stripe. Work offered to a Resource is serialized in virtual time —
// a request that finds the resource busy is queued behind the in-flight
// work, which is how contention turns into measured latency.
//
// Actors book work in *physical* call order, which with many virtual
// clocks is not virtual-time order: a round-robin driver steps client 1
// through a whole operation — pushing the frontier of everything on its
// path to that operation's end — before client 2 offers work stamped
// with the lap's start, and callers on goroutines of their own arrive in
// whatever order the scheduler ran them. The resource therefore
// remembers a bounded list of idle gaps below its frontier and backfills
// such requests into capacity that was genuinely free at their time —
// otherwise whoever books first would teleport the frontier and
// serialize everyone else behind its call order, a pure artifact. An
// actor whose offered times are nondecreasing and at or past the
// frontier never hits the gap path, so single-flow runs are bit-for-bit
// what the plain frontier model gives.
//
// A Resource has no lock of its own: its users serialise on the lock
// that owns it — the deployment's owner (Executor.Enter) for links and
// adapter engines, the store's owner for a store's lock stripe.
type Resource struct {
	name string

	nextFree Time
	gaps     []gap    // idle intervals below nextFree, sorted, bounded
	busy     Duration // total occupied time, for utilization stats
	uses     int64
}

// gap is a half-open idle interval [from, to) below the frontier.
type gap struct{ from, to Time }

// maxGaps bounds the remembered idle intervals; when it is reached the
// earliest gaps are forgotten — forfeiting capacity, never inventing it.
// Forgetting is visible: an actor lagging further behind the frontier
// than the list reaches queues at the frontier instead of running in the
// capacity that was free at its time. The value is measured, not
// derived. What still needs depth is the round-robin drivers: a
// request's reach — how many remembered gaps lie between its time and
// the frontier — peaks at 105 over everything mcbench runs (the
// 1000-server fleet cell; 0–1 for the 16- and 100-client Fig 6 points on
// every transport but jittered SDP, 49) and none arrives below the list,
// while benchmark/'s clients, which draw their own set/get schedules
// and so drift apart in virtual time over a long round-robin run, reach
// 411 and 510 on the fan-in and fleet workloads and do fall off the end
// (EXPERIMENTS.md "One driver, one golden (PR 19)"). From above, every resource with idle time between
// bookings fills its list, so 4096 costs the benchmark's single-client
// workloads +22 % live heap and +15 % bytes/op where 512 costs +2 % and
// +0.3 % (CHANGES.md PR 12 has the runs).
const maxGaps = 512

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire reserves the resource for dur starting no earlier than at.
// It returns the actual start time: at if the resource was free (or had
// a remembered idle gap fitting the work), or the end of the queued work
// ahead of the caller otherwise.
func (r *Resource) Acquire(at Time, dur Duration) (start Time) {
	if dur < 0 {
		dur = 0
	}
	r.busy += dur
	r.uses++
	// Backfill: a request whose virtual time lands below the frontier
	// takes the earliest remembered idle interval that can hold it.
	if at < r.nextFree && dur > 0 {
		// The gaps are sorted and disjoint, and one ending at or before
		// `at` cannot hold the request: binary-search past those, then
		// first-fit.
		i, hi := 0, len(r.gaps)
		for i < hi {
			if mid := int(uint(i+hi) >> 1); r.gaps[mid].to <= at {
				i = mid + 1
			} else {
				hi = mid
			}
		}
		for ; i < len(r.gaps); i++ {
			g := r.gaps[i]
			s := MaxTime(at, g.from)
			if s+dur > g.to {
				continue
			}
			switch {
			case s == g.from && s+dur == g.to: // exact fit: drop the gap
				r.gaps = append(r.gaps[:i], r.gaps[i+1:]...)
			case s == g.from: // booked at the front: shrink
				r.gaps[i].from = s + dur
			case s+dur == g.to: // booked at the back: shrink
				r.gaps[i].to = s
			default: // booked inside: split
				r.gaps[i].to = s
				r.insertGap(i+1, gap{from: s + dur, to: g.to})
			}
			return s
		}
	}
	start = MaxTime(at, r.nextFree)
	if start > r.nextFree {
		// The stretch between the old frontier and this booking was idle:
		// remember it for latecomers with earlier virtual times.
		r.insertGap(len(r.gaps), gap{from: r.nextFree, to: start})
	}
	r.nextFree = start + dur
	return start
}

// insertGap puts g at index i — the one place gaps grow, so the bound
// holds on every path. A full list forgets its earliest quarter in one
// move: any actor with idle time between bookings fills the list, and
// forgetting one gap at a time would then shift all of it on every
// insert.
func (r *Resource) insertGap(i int, g gap) {
	if len(r.gaps) == maxGaps {
		const drop = maxGaps / 4
		r.gaps = r.gaps[:copy(r.gaps, r.gaps[drop:])]
		i = max(i-drop, 0) // a split below the forgotten prefix keeps its upper half, at the head
	}
	r.gaps = append(r.gaps, gap{})
	copy(r.gaps[i+1:], r.gaps[i:])
	r.gaps[i] = g
}

// Stats reports total busy time and number of acquisitions.
func (r *Resource) Stats() (busy Duration, uses int64) {
	return r.busy, r.uses
}
