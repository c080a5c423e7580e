package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Pipeline implements Pipeliner for the text protocol: queued requests
// are accumulated into one write buffer and hit the stream as a single
// Write (the socket analog of a doorbell burst — one syscall/segment
// charge instead of one per request), and replies are drained strictly
// FIFO off the shared bufio.Reader with the blocking calls' own reply
// readers. Pipelined sets never use "noreply": every request has
// exactly one reply, keeping the stream in lockstep with the op queue.
func (t *SockTransport) Pipeline(window int) Pipeline {
	if window < 1 {
		window = 1
	}
	return &sockPipeline{t: t, window: window}
}

type sockPipeline struct {
	t      *SockTransport
	window int
	wbuf   []byte    // request bytes queued since the last Flush
	q      []*future // outstanding, reply order == issue order
	pend   []*future // trailing entries whose bytes sit in wbuf
	err    error     // first transport-level error (sticky)
}

func (p *sockPipeline) Window() int { return p.window }

// push admits f, completing the oldest request when the window is full,
// and flushes once a full window of unwritten requests has accumulated.
func (p *sockPipeline) push(clk *simnet.VClock, f *future) {
	for len(p.q) >= p.window {
		p.settleHead(clk)
	}
	p.q = append(p.q, f)
	p.pend = append(p.pend, f)
	if len(p.pend) >= p.window {
		p.Flush(clk)
	}
}

// Flush writes every queued request in one Write call.
func (p *sockPipeline) Flush(clk *simnet.VClock) error {
	if len(p.pend) == 0 {
		return nil
	}
	p.t.conn.SetClock(clk)
	_, werr := p.t.conn.Write(p.wbuf)
	p.wbuf = p.wbuf[:0]
	for _, f := range p.pend {
		f.sent = true
		if werr != nil {
			f.failed = true
		}
	}
	p.pend = p.pend[:0]
	if werr != nil {
		p.fail(ErrServerDown)
		return ErrServerDown
	}
	return nil
}

func (p *sockPipeline) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// settleHead completes the oldest outstanding request: its reply is the
// next one on the stream. The queue is shifted down rather than
// re-sliced from the front, so it lives in one backing array.
func (p *sockPipeline) settleHead(clk *simnet.VClock) {
	f := p.q[0]
	last := len(p.q) - 1
	copy(p.q, p.q[1:])
	p.q[last] = nil
	p.q = p.q[:last]
	if !f.sent {
		p.Flush(clk)
	}
	if f.failed || p.err != nil {
		f.err, f.done = ErrServerDown, true
		return
	}
	p.t.conn.SetClock(clk)
	if f.err = f.readSock(p.t); f.err != nil {
		p.fail(f.err)
	}
	f.done = true
}

// readSock parses f's reply off the stream into its result fields.
func (f *future) readSock(t *SockTransport) (err error) {
	switch f.kind {
	case futGet:
		f.value, f.flags, f.cas, f.hit, err = t.readGetReply(f.key, f.lend)
	case futSet:
		f.res, err = t.readSetReply()
	case futDelete:
		f.ok, err = t.readDeleteReply()
	}
	return err
}

// waitFor settles FIFO heads until f completes (stream replies cannot
// be reordered, so waiting on a later future drains the earlier ones).
func (p *sockPipeline) waitFor(clk *simnet.VClock, f *future) {
	for !f.done && len(p.q) > 0 {
		p.settleHead(clk)
	}
	if !f.done { // not in q: send never happened (flush marked it failed)
		f.err, f.done = ErrServerDown, true
	}
}

// Wait flushes and settles everything outstanding.
func (p *sockPipeline) Wait(clk *simnet.VClock) error {
	p.Flush(clk)
	for len(p.q) > 0 {
		p.settleHead(clk)
	}
	return p.err
}

func (p *sockPipeline) StartGet(clk *simnet.VClock, key string) *GetFuture {
	return p.StartGetInto(clk, key, nil)
}

func (p *sockPipeline) StartGetInto(clk *simnet.VClock, key string, buf []byte) *GetFuture {
	p.wbuf = memcached.AppendTextGet(p.wbuf, true, key)
	f := &future{pipe: p, kind: futGet, key: key, lend: buf}
	p.push(clk, f)
	return (*GetFuture)(f)
}

func (p *sockPipeline) StartSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) *SetFuture {
	p.wbuf = memcached.AppendTextStore(p.wbuf, memcached.StoreOpSet, key, flags, exptime, value, 0, false)
	f := &future{pipe: p, kind: futSet}
	p.push(clk, f)
	return (*SetFuture)(f)
}

func (p *sockPipeline) StartDelete(clk *simnet.VClock, key string) *BoolFuture {
	p.wbuf = memcached.AppendTextDelete(p.wbuf, key)
	f := &future{pipe: p, kind: futDelete}
	p.push(clk, f)
	return (*BoolFuture)(f)
}

// interface conformance
var (
	_ Pipeliner = (*SockTransport)(nil)
	_ Pipeline  = (*sockPipeline)(nil)
)
