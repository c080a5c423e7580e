package ucr

import (
	"repro/internal/simnet"
	"repro/internal/verbs"
)

// Write-based replies: the responder-side half of the eager/rendezvous
// crossover for GET-class replies. Instead of packing the value into an
// eager AM (one copy at each end) or exposing it for the client to pull
// with RDMA Read (an extra half round trip), the server pushes
// [reply header ‖ value] straight into a reply window the client
// advertised with its request, as ONE gather RDMA WRITE sourced from the
// pinned slab chunk. A small notify AM (sent by the caller afterwards on
// the same QP, so RC ordering guarantees the data precedes it) completes
// the client's future.

// WriteReplies reports how many write-based replies this context has
// posted. Tests and memcheck use it as a vacuity guard: a "write
// replies" run that never posted one proved nothing.
func (c *Context) WriteReplies() uint64 { return c.writeReplies }

// WriteReply gather-posts hdr followed by data into the peer's window at
// offset — the zero-copy reply path. hdr is copied into a pooled
// registered send buffer (it is tiny and the caller's header scratch
// must be immediately reusable); data is referenced in place, so the
// caller MUST keep it pinned until originCtr bumps. The write is posted
// before WriteReply returns.
//
// Unlike Put, originCtr settles when the write completion lands whether
// or not it succeeded (the endpoint is additionally marked failed on
// error): the caller's pin-sweep logic releases the slab item on the
// counter, and a transport failure must not pin it forever.
func (ep *Endpoint) WriteReply(clk *simnet.VClock, hdr, data []byte, dst WindowDesc, offset int, originCtr *Counter) error {
	if ep.failed {
		return ErrEndpointDown
	}
	if ep.rel != Reliable {
		return ErrNeedReliable
	}
	total := len(hdr) + len(data)
	if offset < 0 || offset+total > dst.Len {
		return ErrWindowBounds
	}
	buf := ep.acquireSendBuf()
	if len(buf) < len(hdr) {
		ep.releaseSendBuf(buf)
		return ErrTooLarge // reply header larger than an endpoint buffer: caller bug
	}
	// The header is staged through registered pool memory like an eager
	// pack (the value is not — that is the point).
	clk.Advance(simnet.BytesDuration(len(hdr), ep.ctx.rt.cfg.PackBytesPerSec))
	n := copy(buf, hdr)
	// buf holds the header copy until the write completes; originCtr
	// settles at WC time, success or failure alike (Context.dispatch).
	id := ep.ctx.posted.put(postedWR{kind: wrWriteReply, ep: ep, buf: buf, originCtr: originCtr, originCtrID: originCtr.ID()})
	wr := verbs.SendWR{
		ID:         id,
		Op:         verbs.OpRDMAWrite,
		Local:      buf[:n],
		Local2:     data,
		RemoteAddr: dst.Addr + uint64(offset),
		RKey:       dst.RKey,
	}
	if err := ep.qp.PostSend(clk, wr); err != nil {
		ep.ctx.posted.take(id)
		ep.releaseSendBuf(buf)
		ep.markFailed()
		return ErrEndpointDown
	}
	ep.ctx.writeReplies++
	return nil
}
