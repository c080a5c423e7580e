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
// Data movement is real: SENDs copy payload bytes into pre-posted
// receive buffers, RDMA READ/WRITE copy directly between registered
// regions with no remote software involvement. Time is virtual: each
// operation charges the configured HCA processing costs and the fabric's
// wire model (see internal/simnet).
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
	ErrBadKey       = errors.New("verbs: invalid memory key")
	ErrOutOfBounds  = errors.New("verbs: access outside registered region")
	ErrTooLarge     = errors.New("verbs: message exceeds transport limit")
	ErrNoAddress    = errors.New("verbs: UD send requires an address handle")
	ErrQPDestroyed  = errors.New("verbs: queue pair destroyed")
	ErrInlineLimit  = errors.New("verbs: payload exceeds inline limit")
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
	// CoalescedPostOverhead is the per-WR cost of the 2nd..Nth work
	// request in one PostSendN burst: the WQE build without a doorbell
	// ring, since a burst rings the doorbell once. Defaults to half of
	// PostOverhead. A burst of one charges exactly PostOverhead.
	CoalescedPostOverhead simnet.Duration
	// RegBase and RegPerByte model memory-registration (pinning) cost.
	RegBase    simnet.Duration
	RegPerByte float64 // ns per byte
	// HeaderBytes is the per-packet transport header on the wire.
	HeaderBytes int
	// MTU is the path MTU for segmentation accounting and the hard
	// limit for a single UD datagram.
	MTU int
	// InlineMax is the largest payload that can be sent inline (copied
	// into the WQE, making the origin buffer immediately reusable).
	InlineMax int
	// RetryCount is how many times an RC QP retransmits a packet that
	// the fabric lost before completing the WR with
	// StatusRetryExceeded and moving the QP to ERR (IB retry_cnt).
	RetryCount int
	// AckTimeout is the wait before each RC retransmission (the
	// local-ack-timeout the sender waits for a missing ACK).
	AckTimeout simnet.Duration
	// RNRRetry is how many times an RC sender re-offers a SEND after
	// the receiver reported receiver-not-ready. Zero keeps the legacy
	// behaviour of failing immediately with StatusRNRRetryExceeded.
	RNRRetry int
	// RNRTimer is the back-off before each RNR retransmission.
	RNRTimer simnet.Duration
}

// withDefaults fills unset fields with sane values.
func (c Config) withDefaults() Config {
	if c.MTU <= 0 {
		c.MTU = 2048
	}
	if c.HeaderBytes <= 0 {
		c.HeaderBytes = 30
	}
	if c.InlineMax <= 0 {
		c.InlineMax = 128
	}
	if c.RetryCount <= 0 {
		c.RetryCount = 7 // the IB verbs maximum for retry_cnt
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * simnet.Microsecond
	}
	if c.RNRTimer <= 0 {
		c.RNRTimer = 20 * simnet.Microsecond
	}
	if c.CoalescedPostOverhead <= 0 {
		c.CoalescedPostOverhead = c.PostOverhead / 2
	}
	// RNRRetry deliberately defaults to 0: an RC SEND into a QP with no
	// posted receive fails immediately, which is what the credit-based
	// upper layers rely on to signal misconfiguration loudly.
	return c
}

// SendWR is a send-side work request.
type SendWR struct {
	// ID is an opaque caller token echoed in the completion.
	ID uint64
	// Op is OpSend, OpRDMARead or OpRDMAWrite.
	Op Opcode
	// Local is the local buffer: the payload for SEND/RDMA WRITE, the
	// destination for RDMA READ. It must lie within LocalMR.
	Local []byte
	// Local2 is an optional second gather segment for RDMA WRITE: the
	// wire carries Local followed by Local2 and the target stores them
	// contiguously at RemoteAddr. This models a two-SGE WQE (header +
	// payload gathered from separate registrations) without a scatter
	// list type; other opcodes ignore it.
	Local2 []byte
	// LocalMR is the registration covering Local.
	LocalMR *MR
	// Inline requests inline emission of a small SEND payload.
	Inline bool
	// RemoteAddr and RKey name the remote region for RDMA operations.
	RemoteAddr uint64
	RKey       uint32
	// Dest addresses a UD send.
	Dest *AddressHandle
	// Imm carries 32 bits of immediate data with a SEND.
	Imm uint32
}

// RecvWR is a pre-posted receive buffer.
type RecvWR struct {
	ID  uint64
	Buf []byte
}

// WC is a work completion.
type WC struct {
	ID      uint64
	Op      Opcode
	Status  Status
	ByteLen int
	Imm     uint32
	// SrcQPN identifies the sender's queue pair (meaningful for UD).
	SrcQPN uint32
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

// wireBytes computes on-the-wire size including per-MTU packet headers.
func wireBytes(payload int, cfg Config) int {
	if payload <= 0 {
		return cfg.HeaderBytes
	}
	packets := (payload + cfg.MTU - 1) / cfg.MTU
	return payload + packets*cfg.HeaderBytes
}
