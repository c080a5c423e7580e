package verbs

import (
	"fmt"
	"sync"

	"repro/internal/simnet"
)

// HCA is a host channel adapter: one node's port on one fabric. It owns
// the key and QP-number spaces and the send/receive pipeline resources
// whose serialization caps a single node's message rate.
type HCA struct {
	node   *simnet.Node
	fabric *simnet.Fabric
	cfg    Config

	sendEngine   *simnet.Resource
	recvEngine   *simnet.Resource
	atomicEngine *simnet.Resource

	retransmits uint64

	nextQPN uint32
	nextKey uint32
	nextVA  uint64
	qps     map[uint32]*QP
	mrs     map[uint32]*MR // rkey → MR
	closed  bool

	// memGuard, when set, is taken around every RDMA byte copy that
	// touches this adapter's registered memory: read-locked while remote
	// peers read it, write-locked while bytes land in it. A host that
	// mutates registered memory concurrently with remote access (the
	// Memcached one-sided GET index) installs a guard and write-locks it
	// around its own stores, making the simulated DMA race-free for Go
	// while modeling real hardware's do-not-tear-under-DMA contract at
	// zero cost to unguarded paths.
	memGuard *sync.RWMutex
}

// NewHCA installs an adapter for node on fabric with the given cost
// model. The node is attached to the fabric if it is not already.
func NewHCA(node *simnet.Node, fabric *simnet.Fabric, cfg Config) *HCA {
	fabric.Attach(node)
	return &HCA{
		node:         node,
		fabric:       fabric,
		cfg:          cfg.withDefaults(),
		sendEngine:   simnet.NewResource("hca/" + node.Name() + "/send"),
		recvEngine:   simnet.NewResource("hca/" + node.Name() + "/recv"),
		atomicEngine: simnet.NewResource("hca/" + node.Name() + "/atomic"),
		nextQPN:      1,
		nextKey:      1,
		nextVA:       0x1000, // never hand out 0: it reads as "no address"
		qps:          make(map[uint32]*QP),
		mrs:          make(map[uint32]*MR),
	}
}

// Fabric reports the fabric this adapter is cabled to.
func (h *HCA) Fabric() *simnet.Fabric { return h.fabric }

// PD is a protection domain. QPs and MRs from different PDs cannot be
// mixed, mirroring the IB access-control model.
type PD struct {
	hca *HCA
}

// AllocPD creates a protection domain on this adapter.
func (h *HCA) AllocPD() *PD { return &PD{hca: h} }

// MR is a registered (pinned) memory region. Registration assigns a
// remote key and a stable virtual base address usable in RDMA work
// requests from peers.
type MR struct {
	pd   *PD
	buf  []byte
	rkey uint32
	va   uint64

	destroyed bool
}

// RegisterMR registers buf in the protection domain. If clk is non-nil
// the registration (pinning) cost is charged to it; pass nil during
// setup when registration time is off the critical path.
func (h *HCA) RegisterMR(pd *PD, buf []byte, clk *simnet.VClock) (*MR, error) {
	if pd == nil || pd.hca != h {
		return nil, ErrPDMismatch
	}
	rkey := h.nextKey + 1 // keys come in pairs; the local key is not modeled
	h.nextKey += 2
	va := h.nextVA
	h.nextVA += uint64(len(buf)) + 4096 // guard gap
	mr := &MR{pd: pd, buf: buf, rkey: rkey, va: va}
	h.mrs[rkey] = mr
	if clk != nil {
		clk.Advance(h.cfg.RegBase + simnet.Duration(float64(len(buf))*h.cfg.RegPerByte))
	}
	return mr, nil
}

// DeregisterMR removes the registration; later remote RDMA against it
// completes with StatusRemoteError.
func (h *HCA) DeregisterMR(mr *MR) {
	mr.destroyed = true
	delete(h.mrs, mr.rkey)
}

// RKey reports the remote key peers use for RDMA.
func (m *MR) RKey() uint32 { return m.rkey }

// VA reports the region's virtual base address.
func (m *MR) VA() uint64 { return m.va }

// Bytes exposes the registered memory.
func (m *MR) Bytes() []byte { return m.buf }

// lookupMR resolves an rkey to a live MR.
func (h *HCA) lookupMR(rkey uint32) (*MR, bool) {
	mr, ok := h.mrs[rkey]
	if !ok {
		return nil, false
	}
	return mr, !mr.destroyed
}

// rdmaRange returns the sub-slice of mr covering [addr, addr+n).
func (m *MR) rdmaRange(addr uint64, n int) ([]byte, error) {
	if addr < m.va {
		return nil, ErrOutOfBounds
	}
	off := addr - m.va
	if off > uint64(len(m.buf)) || uint64(n) > uint64(len(m.buf))-off {
		return nil, ErrOutOfBounds
	}
	return m.buf[off : off+uint64(n)], nil
}

// registerQP assigns a QP number and indexes the QP for incoming traffic.
func (h *HCA) registerQP(qp *QP) uint32 {
	qpn := h.nextQPN
	h.nextQPN++
	h.qps[qpn] = qp
	return qpn
}

func (h *HCA) unregisterQP(qpn uint32) { delete(h.qps, qpn) }

// lookupQP resolves a QP number on this adapter.
func (h *HCA) lookupQP(qpn uint32) (*QP, bool) {
	qp, ok := h.qps[qpn]
	return qp, ok
}

// SetMemGuard installs (or clears, with nil) the adapter's registered-
// memory guard. See the memGuard field for semantics. Guards are only
// expected on hosts whose registered memory is mutated while remotely
// readable — in this repo, Memcached servers publishing a one-sided
// index; RDMA between two guarded adapters in opposite directions
// concurrently is not supported (lock order is read-side then write-
// side).
func (h *HCA) SetMemGuard(mu *sync.RWMutex) { h.memGuard = mu }

// MemGuard reports the installed guard, or nil.
func (h *HCA) MemGuard() *sync.RWMutex { return h.memGuard }

// guardedCopy copies src into dst, honoring the destination adapter's
// guard (write-locked) and the source adapter's guard (read-locked).
// Nil guards cost nothing — the common unguarded path is a plain copy.
func guardedCopy(dst, src []byte, wguard, rguard *sync.RWMutex) int {
	if rguard != nil && rguard != wguard {
		rguard.RLock()
		defer rguard.RUnlock()
	}
	if wguard != nil {
		wguard.Lock()
		defer wguard.Unlock()
	}
	return copy(dst, src)
}

// noteRetransmit counts one RC retransmission attempt on this adapter.
func (h *HCA) noteRetransmit() { h.retransmits++ }

// Retransmits reports how many RC retransmissions this adapter's QPs
// have performed (loss and RNR retries combined).
func (h *HCA) Retransmits() uint64 { return h.retransmits }

// Utilization reports the busy time of the send and receive pipelines.
func (h *HCA) Utilization() (send, recv simnet.Duration) {
	send, _ = h.sendEngine.Stats()
	recv, _ = h.recvEngine.Stats()
	return send, recv
}

func (h *HCA) String() string {
	return fmt.Sprintf("HCA(%s on %s)", h.node.Name(), h.fabric.Spec().Name)
}
