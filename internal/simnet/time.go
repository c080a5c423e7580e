// Package simnet provides the virtual-time network fabric on which every
// transport in this repository runs.
//
// Nothing in simnet sleeps or consults the wall clock: time is a virtual
// quantity (nanoseconds) carried by actors and advanced analytically from
// cost models. Data still moves for real between in-process nodes — the
// layers above (verbs, sockstream) exchange actual bytes — but the *when*
// is computed, which is what lets a laptop reproduce the latency and
// throughput shapes of the paper's InfiniBand/10GigE testbeds.
//
// The central primitives are:
//
//   - Time / Duration: virtual nanoseconds.
//   - VClock: a single-owner virtual clock (one per client goroutine,
//     server worker, ...).
//   - Resource: a shared serialization point (a link direction, a NIC DMA
//     engine) with a "next free" horizon. Contention on a Resource is how
//     queueing shows up in measured latency.
//   - Fabric: a switched network (one switch, a full-duplex link per node)
//     with a bandwidth/propagation cost model.
//   - Network / Node: the cluster topology.
//   - Executor / Mailbox: the deployment's one owner, the actors it steps
//     and the queues that hand messages between them.
package simnet

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to the wall clock.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient units for building cost models.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is the deadline of a wait that has none: no clock reaches it.
const Never = Time(1<<63 - 1)

// Micros reports t as fractional microseconds. It is the unit the paper's
// figures use.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds reports t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// BytesDuration returns the time to move n bytes at rate bytes/second.
// A non-positive rate means "infinitely fast" and costs nothing.
func BytesDuration(n int, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSec * 1e9)
}

// VClock is a virtual clock owned by exactly one actor: a benchmark
// client's goroutine, a memcached worker's step, and so on. Only the
// owner may advance it; cross-actor ordering happens through message
// timestamps and Resource serialization, never by sharing a VClock. It
// is a plain field: a harness reads a worker's clock between the
// worker's steps (Actor.Do), like the rest of the worker's state.
type VClock struct {
	now Time
}

// NewVClock returns a clock set to the given start time.
func NewVClock(start Time) *VClock { return &VClock{now: start} }

// Now reports the current virtual time.
func (c *VClock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d is ignored: virtual
// time is monotone.
func (c *VClock) Advance(d Duration) Time {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
// This is how a receiver synchronizes with a message's arrival stamp.
func (c *VClock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Set forces the clock to t (used when re-seating a clock between runs).
func (c *VClock) Set(t Time) { c.now = t }
