// Package ucr implements the Unified Communication Runtime — the
// paper's §IV contribution: an active-message communication library over
// InfiniBand verbs designed to serve data-center middleware (Memcached)
// with the same buffer-management and flow-control machinery as HPC
// runtimes (MVAPICH).
//
// The programming model follows the paper exactly:
//
//   - Endpoints, not ranks: a client establishes a bidirectional
//     end-point with a server before communication; one failing process
//     never takes down others (§IV-A).
//   - Active messages: a message has a header and data. At the target a
//     registered *header handler* runs first and identifies the
//     destination buffer; the data then lands there — packed in the same
//     network transaction for small messages (§IV, Fig 2b), or pulled by
//     the target with RDMA Read for large ones (Fig 2a) — after which an
//     optional *completion handler* runs.
//   - Counters: monotonically increasing objects tracking progress.
//     origin_counter bumps at the origin when the send buffers are
//     reusable; target_counter bumps at the target when data has arrived
//     and the completion handler ran; completion_counter bumps at the
//     origin when the target's completion handler finished. NULL
//     (zero/nil) counters suppress the corresponding internal ack
//     messages (§IV-C).
//   - Synchronization with timeouts: waits carry virtual deadlines so a
//     dead peer is detected and survivable (§IV-A). A wait learns that
//     nothing will come from the executor (simnet.Mailbox.RecvIdle), not
//     from a clock: it then fails at its deadline, or at once if it has
//     none.
//
// A runtime, its contexts, endpoints, counters and registration cache
// belong to one deployment and are used under its owner
// (simnet.Executor.Enter); none of them locks.
package ucr

import (
	"errors"

	"repro/internal/simnet"
)

// Errors returned by UCR operations.
var (
	ErrTimeout      = errors.New("ucr: wait timed out")
	errEndpointDown = errors.New("ucr: endpoint down")
	errTooLarge     = errors.New("ucr: message too large for endpoint type")
	// errNeedReliable rejects one-sided and atomic operations on a UD
	// endpoint: RDMA read/write/atomics exist only on the RC transport.
	// Distinct from errTooLarge so callers can tell "switch to an RC
	// endpoint" from "shrink the message".
	errNeedReliable = errors.New("ucr: one-sided operation requires a reliable endpoint")
	errClosed       = errors.New("ucr: context destroyed")
	errWindowBounds = errors.New("ucr: one-sided access outside window")
)

// Reliability selects the endpoint type, mirroring the paper's choice of
// reliable (RC-backed) vs unreliable (UD-backed) end-points.
type Reliability uint8

// Endpoint reliability classes.
const (
	Reliable   Reliability = iota // InfiniBand RC transport
	Unreliable                    // InfiniBand UD transport (§VII extension)
)

func (r Reliability) String() string {
	if r == Unreliable {
		return "unreliable"
	}
	return "reliable"
}

// CounterID names a counter across the network: an origin can ask the
// target to bump a specific counter on the target's side (this is how
// Memcached's client passes "counter C" inside its request so the
// server's reply targets it; paper §V-B/V-C).
type CounterID uint64

// Counter is a monotonically increasing progress object (§IV-C),
// incremented during progress and read by its issuer, both under the
// deployment's owner (simnet.Executor.Enter).
// The runtime keeps each struct at one index of its counter table and
// reissues it under a new generation (Runtime.NewCounter), so anything
// that may fire after a free holds the id, never the pointer: the id
// resolves through the table, where a freed or reissued one misses.
type Counter struct {
	id  CounterID // the issued CounterID; 0 while free
	val uint64
	gen uint32 // generation of the last issue

	// UserData lets the issuer reach its per-request state from the id a
	// message carries (Runtime.Counter), without a side table.
	UserData any
}

// ID reports the network-visible identifier.
func (c *Counter) ID() CounterID {
	if c == nil {
		return 0
	}
	return c.id
}

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.val }

// HeaderHandler runs at the target when a message header arrives. It may
// perform limited logic and must return the destination buffer for the
// data — at least dataLen bytes (a zero dataLen may return nil). clk is
// the progressing actor's virtual clock; processing the handler does in
// the real system should be charged to it. tag is the message's target
// counter id as carried on the wire — for request/reply protocols it
// doubles as the request tag, letting a receiver with several requests
// in flight route the reply to the right slot (and recognize a late
// duplicate from an AM retry, whose tag no longer matches any slot).
type HeaderHandler func(clk *simnet.VClock, ep *Endpoint, hdr []byte, dataLen int, tag CounterID) []byte

// CompletionHandler runs at the target after the data has fully landed
// in the buffer the header handler chose. It may itself send messages
// (this is how the Memcached server issues its reply AM, §V-B). tag is
// the same target-counter id the header handler saw.
type CompletionHandler func(clk *simnet.VClock, ep *Endpoint, hdr, data []byte, tag CounterID)

// Handler couples the two stages for one message id. Completion may be
// nil (the paper notes running it is optional, decided by handler
// registration).
type Handler struct {
	Header     HeaderHandler
	Completion CompletionHandler
}

// Handlers is an AM handler table indexed by message id. A table
// runtimes share (Runtime.ShareHandlers) is filled before it is shared
// and not written after.
type Handlers [256]*Handler

// Register installs the handler pair for a message id.
func (t *Handlers) Register(msgID uint8, h Handler) { t[msgID] = &h }

// Config tunes the runtime. Zero values get paper-faithful defaults.
type Config struct {
	// EagerThreshold is the largest header+data that travels packed in
	// one network transaction (paper §V: one 8 KB network buffer).
	EagerThreshold int
	// Credits is the number of pre-posted receive buffers per endpoint
	// (the flow-control window).
	Credits int
	// PackBytesPerSec is memcpy bandwidth for packing eager payloads
	// into registered buffers at the origin and out at the target.
	PackBytesPerSec float64
	// HandlerOverhead is the fixed cost of dispatching one active
	// message into its header handler.
	HandlerOverhead simnet.Duration
	// UseSRQ makes every RC endpoint in a context draw receives from
	// one shared receive queue instead of a per-endpoint window — the
	// MVAPICH scalability design the paper cites ([11]) and the basis
	// of §VII's plan to scale client counts: buffer memory stays flat
	// as endpoints grow. Credit-based flow control is disabled in this
	// mode (the shared pool absorbs bursts, sized by SRQBuffers).
	UseSRQ bool
	// SRQBuffers sizes the shared pool (default 4 × Credits).
	SRQBuffers int
	// regCacheEntries caps the registration cache (default 128).
	regCacheEntries int
}

// pollSpin is the short busy-poll window a batched CQ drain keeps open
// after harvesting work: a completion landing within pollSpin of the
// drain's clock is harvested at the coalesced cost — the poller is still
// spinning in its loop, so there is no wakeup to pay — with the clock
// advanced to the completion's arrival (the time spent spinning). Only
// the 2nd..Nth steps of a drain that already harvested a completion
// spin; a lone completion (depth-1 traffic, where the next arrival is a
// full round trip away) always pays the full poll cost, keeping the
// figure tables bit-identical: 2.5µs is well under any depth-1
// inter-arrival gap, which is a full round trip of ≥ 3.8µs past the op
// just served.
const pollSpin = 2500 * simnet.Nanosecond

func (c Config) withDefaults() Config {
	if c.EagerThreshold <= 0 {
		c.EagerThreshold = 8192
	}
	if c.Credits <= 0 {
		c.Credits = 64
	}
	if c.PackBytesPerSec <= 0 {
		c.PackBytesPerSec = 5e9
	}
	if c.regCacheEntries <= 0 {
		c.regCacheEntries = 128
	}
	if c.SRQBuffers <= 0 {
		c.SRQBuffers = 4 * c.Credits
	}
	return c
}
