// Package verbs implements a software InfiniBand verbs layer — the
// lowest, OS-bypassed access layer the paper builds UCR on (§II-A1).
//
// The API mirrors the OpenFabrics verbs object model: an HCA (host
// channel adapter) owns protection domains (PD), registered memory
// regions (MR), completion queues (CQ) and queue pairs (QP, reliable
// connected or unreliable datagram). Upper layers post work requests
// (SEND, RECV, RDMA READ, RDMA WRITE) on a QP and detect completion by
// polling the CQ — polling yields the lowest latency, exactly as §II-A1
// notes, and event (interrupt) mode is available for the ablation bench.
//
// Data movement is real: a SEND's payload bytes land in a buffer from
// the receiver's completion-queue pool against a pre-posted receive
// reservation, RDMA READ/WRITE copy directly between registered
// regions with no remote software involvement. Time is virtual: each
// operation charges the configured HCA processing costs and the fabric's
// wire model (see internal/simnet).
//
// Nothing here locks. An adapter and everything made from it belong to
// one deployment and are used under its owner (simnet.Executor.Enter);
// only the completion queues' mailboxes synchronise, and the memory
// guard a host installs (HCA.SetMemGuard).
package verbs

import (
	"errors"
	"fmt"

	"repro/internal/simnet"
)

// Opcode identifies the kind of work request.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpRecv
	OpRDMARead
	OpRDMAWrite
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpRDMARead:
		return "RDMA_READ"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// Status is a work completion status.
type Status uint8

// Work completion statuses.
const (
	StatusSuccess Status = iota
	StatusRemoteError
	StatusRNRRetryExceeded // receiver not ready: no posted receive buffer
	StatusFlushed          // QP destroyed/errored with work outstanding
	StatusTransportError   // fabric unreachable / peer failed
	StatusRetryExceeded    // RC retransmission budget exhausted on a lossy fabric
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusRemoteError:
		return "remote-error"
	case StatusRNRRetryExceeded:
		return "rnr-retry-exceeded"
	case StatusFlushed:
		return "flushed"
	case StatusTransportError:
		return "transport-error"
	case StatusRetryExceeded:
		return "retry-exceeded"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Errors returned by verbs operations.
var (
	ErrBadState     = errors.New("verbs: queue pair in wrong state")
	ErrPDMismatch   = errors.New("verbs: protection domain mismatch")
	ErrOutOfBounds  = errors.New("verbs: access outside registered region")
	ErrTooLarge     = errors.New("verbs: message exceeds transport limit")
	ErrNoAddress    = errors.New("verbs: UD send requires an address handle")
	ErrNotConnected = errors.New("verbs: RC queue pair not connected")
	ErrSRQFull      = errors.New("verbs: shared receive queue ring full")
)

// QPState is the queue pair state machine position (a subset of the IB
// spec's states, enough to enforce correct bring-up ordering).
type QPState uint8

// Queue pair states.
const (
	StateReset QPState = iota
	StateInit
	StateRTR // ready to receive
	StateRTS // ready to send
	StateErr
)

func (s QPState) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateInit:
		return "INIT"
	case StateRTR:
		return "RTR"
	case StateRTS:
		return "RTS"
	case StateErr:
		return "ERR"
	default:
		return fmt.Sprintf("QPState(%d)", uint8(s))
	}
}

// QPType selects the transport service.
type QPType uint8

// Transport services. RC is what the paper's UCR uses; UD is the
// future-work extension (§VII) for scaling client counts.
const (
	RC QPType = iota // reliable connected
	UD               // unreliable datagram
)

func (t QPType) String() string {
	if t == UD {
		return "UD"
	}
	return "RC"
}

// Config holds the HCA cost model. All durations are charged in virtual
// time; see internal/cluster for the per-generation parameter sets
// (ConnectX DDR for cluster A, ConnectX QDR for cluster B).
type Config struct {
	// PostOverhead is the CPU cost of posting one work request
	// (building the WQE and ringing the doorbell).
	PostOverhead simnet.Duration
	// SendProc is the HCA pipeline time to emit one message.
	SendProc simnet.Duration
	// RecvProc is the HCA pipeline time to place one arrived message.
	RecvProc simnet.Duration
	// RDMAProc is the target-HCA time to serve one RDMA read/write
	// (no software there; this is the adapter's DMA setup).
	RDMAProc simnet.Duration
	// PollOverhead is the CPU cost of one successful CQ poll.
	PollOverhead simnet.Duration
	// InterruptOverhead replaces PollOverhead when a CQ is armed for
	// events (interrupt-driven completion, §II-A1's slower option).
	InterruptOverhead simnet.Duration
	// RegBase and RegPerByte model memory-registration (pinning) cost.
	RegBase    simnet.Duration
	RegPerByte float64 // ns per byte
	// HeaderBytes is the per-packet transport header on the wire.
	HeaderBytes int
	// AckTimeout is the wait before each RC retransmission (the
	// local-ack-timeout the sender waits for a missing ACK).
	AckTimeout simnet.Duration
	// RNRTimer is the back-off before each RNR retransmission.
	RNRTimer simnet.Duration
}

// The RC retry budgets are IB's, the same on every adapter generation:
// retryCount is how many times a QP retransmits a packet the fabric lost
// before completing the WR with StatusRetryExceeded and moving to ERR
// (retry_cnt, whose verbs maximum is 7); rnrRetry is how many times a
// sender re-offers a SEND the receiver had no posted buffer for
// (rnr_retry).
const (
	retryCount = 7
	rnrRetry   = 6
)

// withDefaults fills unset fields with sane values.
func (c Config) withDefaults() Config {
	if c.HeaderBytes <= 0 {
		c.HeaderBytes = 30
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * simnet.Microsecond
	}
	if c.RNRTimer <= 0 {
		c.RNRTimer = 20 * simnet.Microsecond
	}
	return c
}

// SendWR is a send-side work request.
type SendWR struct {
	// ID is an opaque caller token echoed in the completion.
	ID uint64
	// Op is OpSend, OpRDMARead or OpRDMAWrite.
	Op Opcode
	// Local is the local buffer: the payload for SEND/RDMA WRITE, the
	// destination for RDMA READ.
	Local []byte
	// Local2 is an optional second gather segment for RDMA WRITE: the
	// wire carries Local followed by Local2 and the target stores them
	// contiguously at RemoteAddr. This models a two-SGE WQE (header +
	// payload gathered from separate registrations) without a scatter
	// list type; other opcodes ignore it.
	Local2 []byte
	// LocalMR names the registration covering Local. Nothing checks or
	// reads it.
	LocalMR *MR
	// RemoteAddr and RKey name the remote region for RDMA operations.
	RemoteAddr uint64
	RKey       uint32
	// Dest addresses a UD send.
	Dest *AddressHandle
}

// RecvWR is a posted receive: a reservation for one message of up to
// Len bytes. A reservation holds no host memory — the adapter lands the
// message in a buffer from the receiving CQ's pool, sized to the
// message (WC.Buf), and the consumer hands it back with CQ.Recycle.
// Buf, when set, is a caller-owned landing buffer instead, and its
// length is the reservation's.
type RecvWR struct {
	ID  uint64
	Len int
	Buf []byte
}

// WC is a work completion.
type WC struct {
	ID      uint64
	Op      Opcode
	Status  Status
	ByteLen int
	// Buf holds a received message's bytes: a buffer from the CQ's pool
	// for a reservation (return it with CQ.Recycle once consumed), the
	// posted buffer otherwise. Nil for every other completion.
	Buf []byte
	// QPN identifies the local queue pair the completion belongs to.
	QPN uint32
	// Time is the virtual time at which the completion became visible.
	Time simnet.Time
}

// AddressHandle names a remote UD endpoint: the target adapter and the
// queue pair number on it (the in-process analogue of LID + QPN).
type AddressHandle struct {
	Target *HCA
	QPN    uint32
}

// wireBytes computes on-the-wire size including a transport header per
// fabric MTU.
func (h *HCA) wireBytes(payload int) int {
	if payload <= 0 {
		return h.cfg.HeaderBytes
	}
	mtu := h.fabric.Spec().MTU
	packets := (payload + mtu - 1) / mtu
	return payload + packets*h.cfg.HeaderBytes
}
