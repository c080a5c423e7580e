package ucr

import (
	"encoding/binary"

	"repro/internal/simnet"
	"repro/internal/verbs"
)

// One-sided put/get — the second half of UCR's API surface (§IV:
// "[UCR] provides interfaces for Active Messages as well as one-sided
// put/get operations"). A process exposes a Window over a buffer; peers
// holding the window's descriptor move data in or out with RDMA,
// without any software running at the window's owner.

// Window is a remote-accessible memory region.
type Window struct {
	rt  *Runtime
	mr  *verbs.MR
	buf []byte
}

// WindowDesc names a window across the network. It is fixed-size and
// serializable, so it can ride in an active-message header.
type WindowDesc struct {
	Addr uint64
	RKey uint32
	Len  int
}

// windowDescSize is the encoded size of a WindowDesc.
const windowDescSize = 8 + 4 + 8

// MaxWindowLen bounds a decoded window length. Descriptors arrive off
// the wire; a 64-bit length must not truncate into a negative int or
// admit a bound so large that offset+len arithmetic overflows.
const MaxWindowLen = 1 << 40

// Encode packs the descriptor.
func (d WindowDesc) Encode() []byte {
	b := make([]byte, windowDescSize)
	le := binary.LittleEndian
	le.PutUint64(b, d.Addr)
	le.PutUint32(b[8:], d.RKey)
	le.PutUint64(b[12:], uint64(d.Len))
	return b
}

// DecodeWindowDesc unpacks a descriptor. It rejects (rather than
// silently truncates) lengths that do not fit in an int or exceed
// MaxWindowLen.
func DecodeWindowDesc(b []byte) (WindowDesc, bool) {
	if len(b) < windowDescSize {
		return WindowDesc{}, false
	}
	le := binary.LittleEndian
	n := le.Uint64(b[12:])
	if n > MaxWindowLen {
		return WindowDesc{}, false
	}
	return WindowDesc{
		Addr: le.Uint64(b),
		RKey: le.Uint32(b[8:]),
		Len:  int(n),
	}, true
}

// CreateWindow registers buf for remote access. Registration cost is
// charged to clk (nil: setup time, free).
func (rt *Runtime) CreateWindow(buf []byte, clk *simnet.VClock) (*Window, error) {
	mr, err := rt.hca.RegisterMR(rt.pd, buf, clk)
	if err != nil {
		return nil, err
	}
	return &Window{rt: rt, mr: mr, buf: buf}, nil
}

// Desc returns the network-visible descriptor.
func (w *Window) Desc() WindowDesc {
	return WindowDesc{Addr: w.mr.VA(), RKey: w.mr.RKey(), Len: len(w.buf)}
}

// Bytes exposes the window's memory (owner side).
func (w *Window) Bytes() []byte { return w.buf }

// Close revokes remote access.
func (w *Window) Close() { w.rt.hca.DeregisterMR(w.mr) }

// Put writes local into the peer's window at offset. originCtr bumps
// when the transfer is complete and local is reusable.
func (ep *Endpoint) Put(clk *simnet.VClock, local []byte, dst WindowDesc, offset int, originCtr *Counter) error {
	return ep.oneSided(clk, verbs.OpRDMAWrite, local, dst, offset, originCtr)
}

// Get reads from the peer's window at offset into local. originCtr
// bumps when the data has arrived.
func (ep *Endpoint) Get(clk *simnet.VClock, local []byte, src WindowDesc, offset int, originCtr *Counter) error {
	return ep.oneSided(clk, verbs.OpRDMARead, local, src, offset, originCtr)
}

func (ep *Endpoint) oneSided(clk *simnet.VClock, op verbs.Opcode, local []byte, win WindowDesc, offset int, originCtr *Counter) error {
	if ep.failed {
		return ErrEndpointDown
	}
	if ep.rel != Reliable {
		return ErrNeedReliable
	}
	if offset < 0 || offset+len(local) > win.Len {
		return ErrWindowBounds
	}
	id := ep.ctx.posted.put(postedWR{kind: wrOneSided, ep: ep, originCtr: originCtr.ID()})
	err := ep.qp.PostSend(clk, verbs.SendWR{
		ID:         id,
		Op:         op,
		Local:      local,
		RemoteAddr: win.Addr + uint64(offset),
		RKey:       win.RKey,
	})
	if err != nil {
		ep.ctx.posted.take(id)
		ep.markFailed()
		return ErrEndpointDown
	}
	return nil
}

// FetchAdd atomically adds delta to the 8-byte word at offset in the
// peer's window and returns the prior value. The update is executed by
// the window owner's HCA — no remote software (the §III related-work
// services, lock managers among them, are built on exactly this).
// The call blocks, driving progress until the atomic completes.
func (ep *Endpoint) FetchAdd(clk *simnet.VClock, win WindowDesc, offset int, delta uint64) (uint64, error) {
	if ep.failed {
		return 0, ErrEndpointDown
	}
	if ep.rel != Reliable {
		return 0, ErrNeedReliable
	}
	if offset < 0 || offset+8 > win.Len {
		return 0, ErrWindowBounds
	}
	var result uint64
	done := ep.ctx.rt.NewCounter() // local-only progress counter; never leaves this host
	defer ep.ctx.rt.FreeCounter(done)
	id := ep.ctx.posted.put(postedWR{kind: wrOneSided, ep: ep, originCtr: done.ID()})
	wr := verbs.AtomicWR{ID: id, RemoteAddr: win.Addr + uint64(offset), RKey: win.RKey, Add: delta, Result: &result}
	if err := ep.qp.PostAtomic(clk, wr); err != nil {
		ep.ctx.posted.take(id)
		ep.markFailed()
		return 0, ErrEndpointDown
	}
	// Wait by hand rather than via WaitCounter: an error-status WC marks
	// the endpoint failed without bumping done, and on any exit without a
	// completion the pending entry must be removed, or a late completion
	// would bump a dead counter and the table would grow without bound.
	deadline := clk.Now() + simnet.Second
	for done.Value() < 1 {
		if ep.failed {
			ep.ctx.posted.take(id)
			return 0, ErrEndpointDown
		}
		ok, timedOut := ep.ctx.progressDeadline(clk, deadline)
		if timedOut {
			ep.ctx.posted.take(id)
			return 0, ErrTimeout
		}
		if !ok {
			ep.ctx.posted.take(id)
			return 0, ErrClosed
		}
	}
	if ep.failed {
		return 0, ErrEndpointDown
	}
	return result, nil
}
