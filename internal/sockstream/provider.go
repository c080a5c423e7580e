// Package sockstream implements byte-stream sockets over the simulated
// fabrics — the transports the paper runs *unmodified* Memcached on:
// kernel TCP/IP over 1GigE, hardware-offloaded TCP (TOE) over 10GigE,
// IP-over-InfiniBand (IPoIB), and the Sockets Direct Protocol (SDP).
//
// Each provider is a cost model for the same stream machinery. The
// knobs capture the effects the paper attributes the sockets penalty to:
// per-call syscall/interrupt overheads (no OS bypass), intermediate
// memory copies (byte-stream vs memory semantics), per-segment protocol
// processing, and — for SDP on QDR — the jitter the authors observed
// and could not eliminate (§VI-B).
//
// A provider seated on a deployment's fabric (Clone), its listeners and
// its connections are used under the deployment's owner
// (simnet.Executor.Enter) and do not lock; the segment mailboxes are the
// one synchronised hand-off.
package sockstream

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// Provider is one socket stack: a fabric plus the software cost model
// layered over it.
type Provider struct {
	// Name identifies the stack ("1GigE", "10GigE-TOE", "IPoIB", "SDP").
	Name string
	// Fabric carries the bytes.
	Fabric *simnet.Fabric

	// SendSyscall is charged once per Write call (send(2) entry, or the
	// lighter doorbell for offloaded stacks). It occupies the calling
	// thread.
	SendSyscall simnet.Duration
	// SendDeferred is transmit-path kernel work that happens after the
	// syscall returns (softirq / NIC queueing on another core): it delays
	// the segment but does not occupy the caller.
	SendDeferred simnet.Duration
	// RecvSyscall is charged once per Read call that has to take data
	// from the network (recv(2) entry and wakeup). It occupies the
	// reading thread.
	RecvSyscall simnet.Duration
	// RecvDeferred is receive-path kernel work done in interrupt context
	// on arrival (protocol processing in softirq): it delays delivery but
	// does not occupy the reader — which is why a kernel stack's latency
	// penalty is bigger than its throughput penalty.
	RecvDeferred simnet.Duration
	// SendCopies / RecvCopies count intermediate memory copies per byte
	// on each side (kernel TCP: user→skb and skb→NIC, etc.).
	SendCopies int
	RecvCopies int
	// CopyBytesPerSec is memcpy bandwidth for those copies.
	CopyBytesPerSec float64
	// SegmentSize is the MSS / SDP private-buffer size.
	SegmentSize int
	// PerSegment is protocol processing per emitted segment.
	PerSegment simnet.Duration
	// WireHeader is per-segment on-wire framing overhead in bytes.
	WireHeader int
	// ConnSetup is extra handshake cost charged to the dialer.
	ConnSetup simnet.Duration
	// Jitter, if set, returns an extra per-segment delay (SDP on QDR).
	Jitter func(*simnet.Rand) simnet.Duration
	// RTOMin is the stack's minimum retransmission timeout: how long a
	// lost segment waits before its first retransmission (Linux TCP
	// floors this at 200 ms, which is why loss devastates kernel-stack
	// tail latency). Doubles per retry (exponential backoff).
	RTOMin simnet.Duration

	retransmits uint64

	// endpointSeeds numbers this provider's endpoints; the number seeds
	// the endpoint's jitter stream. Clones share their template's
	// sequence, so the deployments cut from one profile draw one
	// continuing stream, and what they draw depends on nothing outside
	// that profile. It is the one piece of a provider that deployments
	// share, so it stays atomic where the rest is single-owner.
	endpointSeeds atomic.Pointer[atomic.Uint64]

	listeners map[string]*simnet.Mailbox[*dialReq]
}

// rtoRetries bounds retransmission attempts per segment before the
// connection is declared unreachable.
const rtoRetries = 8

// Stream errors.
var (
	errClosed      = errors.New("sockstream: connection closed")
	errRefusedConn = errors.New("sockstream: connection refused")
	errDialTimeout = errors.New("sockstream: dial timed out")
	errUnreachable = errors.New("sockstream: peer unreachable")
)

func (p *Provider) init() {
	if p.SegmentSize <= 0 {
		p.SegmentSize = 1460
	}
	if p.CopyBytesPerSec <= 0 {
		p.CopyBytesPerSec = 4e9
	}
	if p.RTOMin <= 0 {
		p.RTOMin = 200 * simnet.Millisecond // Linux TCP_RTO_MIN
	}
	if p.listeners == nil {
		p.listeners = make(map[string]*simnet.Mailbox[*dialReq])
	}
}

// Retransmits reports how many segments this provider's connections
// have retransmitted (both directions share the provider's counter).
func (p *Provider) Retransmits() uint64 { return p.retransmits }

func (p *Provider) String() string { return fmt.Sprintf("Provider(%s)", p.Name) }

// Clone returns a fresh provider with the same cost model, seated on
// fab, with its own (empty) listener table and p's endpoint-seed
// sequence. Profiles are shared templates; deployments clone them.
func (p *Provider) Clone(fab *simnet.Fabric) *Provider {
	c := &Provider{
		Name:            p.Name,
		Fabric:          fab,
		SendSyscall:     p.SendSyscall,
		SendDeferred:    p.SendDeferred,
		RecvSyscall:     p.RecvSyscall,
		RecvDeferred:    p.RecvDeferred,
		SendCopies:      p.SendCopies,
		RecvCopies:      p.RecvCopies,
		CopyBytesPerSec: p.CopyBytesPerSec,
		SegmentSize:     p.SegmentSize,
		PerSegment:      p.PerSegment,
		WireHeader:      p.WireHeader,
		ConnSetup:       p.ConnSetup,
		Jitter:          p.Jitter,
		RTOMin:          p.RTOMin,
	}
	c.endpointSeeds.Store(p.seeds())
	return c
}

// segment is one unit in flight. data is owned by whoever holds the
// segment: the writer fills it, the mailbox carries it, and the reader
// hands it back to its endpoint's spare list once the bytes are in rbuf.
type segment struct {
	data   []byte
	arrive simnet.Time
}

type dialReq struct {
	remote *endpoint // dialer's endpoint
	arrive simnet.Time
	reply  *simnet.Mailbox[dialReply]
}

type dialReply struct {
	sentAt simnet.Time
	err    error
}

// Listener accepts stream connections for a service.
type Listener struct {
	p       *Provider
	node    *simnet.Node
	service string
	queue   *simnet.Mailbox[*dialReq]
}

// Listen binds a service name on a node.
func (p *Provider) Listen(node *simnet.Node, service string) (*Listener, error) {
	p.init()
	key := node.Name() + "/" + service
	if _, dup := p.listeners[key]; dup {
		return nil, fmt.Errorf("sockstream: %s already bound on %s", service, node.Name())
	}
	q := simnet.NewMailboxOn[*dialReq](p.Fabric.Executor())
	p.listeners[key] = q
	return &Listener{p: p, node: node, service: service, queue: q}, nil
}

// Accept blocks for the next connection; clk is synchronized with the
// SYN's arrival. ok=false means the listener is closed.
func (l *Listener) Accept(clk *simnet.VClock) (*Conn, bool) {
	req, ok := l.queue.Recv()
	if !ok {
		return nil, false
	}
	return l.complete(req, clk), true
}

// TryAccept is Accept for an accept loop that must not block: ok=false
// means no connection is pending.
func (l *Listener) TryAccept(clk *simnet.VClock) (*Conn, bool) {
	req, ok, _ := l.queue.TryRecv()
	if !ok {
		return nil, false
	}
	return l.complete(req, clk), true
}

// SetOwner makes actor a the listener's acceptor: every SYN makes a
// ready, ordered by its arrival.
func (l *Listener) SetOwner(a *simnet.Actor) {
	l.queue.SetOwner(a, nil, func(req **dialReq) simnet.Time { return (*req).arrive })
}

func (l *Listener) complete(req *dialReq, clk *simnet.VClock) *Conn {
	clk.AdvanceTo(req.arrive)
	local := newEndpoint(l.p, l.node)
	local.peer = req.remote
	req.remote.peer = local
	req.reply.Put(dialReply{sentAt: clk.Now()})
	return &Conn{ep: local, clk: clk}
}

// Close unbinds the service and wakes pending Accepts.
func (l *Listener) Close() {
	delete(l.p.listeners, l.node.Name()+"/"+l.service)
	l.queue.Close()
}

// Dial connects from a node to a service on a remote node. The SYN/ACK
// round trip plus ConnSetup is charged to clk. An acceptor that never
// comes ends the wait with errDialTimeout: a listener owned by an actor
// is known dead when the simulation goes idle; only for an acceptor on a
// goroutine of its own, which may not have started yet, does realCap
// bound the wait in real time.
func (p *Provider) Dial(from, to *simnet.Node, service string, clk *simnet.VClock, realCap time.Duration) (*Conn, error) {
	p.init()
	q := p.listeners[to.Name()+"/"+service]
	if q == nil {
		return nil, errRefusedConn
	}
	arrive, err := p.Fabric.Deliver(from, to, clk.Now(), 64+p.WireHeader)
	if err != nil {
		return nil, errUnreachable
	}
	local := newEndpoint(p, from)
	req := &dialReq{remote: local, arrive: arrive, reply: simnet.NewMailboxOn[dialReply](p.Fabric.Executor())}
	q.Put(req)
	var rep dialReply
	var ok, timedOut bool
	if q.Owned() {
		rep, ok, timedOut = req.reply.RecvIdle()
	} else {
		rep, ok, timedOut = req.reply.RecvTimeout(realCap)
	}
	if timedOut {
		return nil, errDialTimeout
	}
	if !ok {
		return nil, errRefusedConn
	}
	if rep.err != nil {
		return nil, rep.err
	}
	back, err := p.Fabric.Deliver(to, from, rep.sentAt, 64+p.WireHeader)
	if err != nil {
		return nil, errUnreachable
	}
	clk.AdvanceTo(back)
	clk.Advance(p.ConnSetup)
	return &Conn{ep: local, clk: clk}, nil
}

// endpoint is one half of a connection.
type endpoint struct {
	p    *Provider
	node *simnet.Node
	in   *simnet.Mailbox[segment]
	rng  *simnet.Rand

	peer   *endpoint
	closed bool

	// spare recycles the buffers of segments this end has consumed; the
	// peer's Write draws its next segment buffers from it, so a
	// steady-state request/response stream allocates none. Bounded in
	// count (maxSpareSegs) and, since a buffer never outgrows the
	// provider's SegmentSize, in bytes.
	spare [][]byte
}

// maxSpareSegs bounds an endpoint's spare list: a closed-loop stream has
// a segment or two in flight per direction, and a burst's surplus goes
// back to the collector.
const maxSpareSegs = 4

// takeSeg returns an n-byte segment buffer for a write towards ep: a
// spare one that is large enough, else a new one with its capacity
// rounded up to a power of two (at most SegmentSize, which bounds n) so
// that the buffers of a stream whose message sizes vary converge on one
// that fits them all.
func (ep *endpoint) takeSeg(n int) []byte {
	for i := len(ep.spare) - 1; i >= 0; i-- {
		if b := ep.spare[i]; cap(b) >= n {
			last := len(ep.spare) - 1
			ep.spare[i] = ep.spare[last]
			ep.spare[last] = nil
			ep.spare = ep.spare[:last]
			return b[:n]
		}
	}
	c := 64
	for c < n {
		c <<= 1
	}
	return make([]byte, n, min(c, ep.p.SegmentSize))
}

// putSeg hands a consumed segment's buffer back. A full list keeps its
// larger buffers.
func (ep *endpoint) putSeg(b []byte) {
	if len(ep.spare) < maxSpareSegs {
		ep.spare = append(ep.spare, b)
		return
	}
	for i, s := range ep.spare {
		if cap(s) < cap(b) {
			ep.spare[i] = b
			return
		}
	}
}

// seeds returns the provider's endpoint-seed sequence, starting one on
// first use (a template is never dialled, only cloned).
func (p *Provider) seeds() *atomic.Uint64 {
	if s := p.endpointSeeds.Load(); s != nil {
		return s
	}
	p.endpointSeeds.CompareAndSwap(nil, new(atomic.Uint64))
	return p.endpointSeeds.Load()
}

func newEndpoint(p *Provider, node *simnet.Node) *endpoint {
	seed := p.seeds().Add(1)
	return &endpoint{p: p, node: node, in: simnet.NewMailboxOn[segment](p.Fabric.Executor()), rng: simnet.NewRand(seed)}
}

// Conn is the user-visible stream handle. It satisfies io.ReadWriteCloser
// so protocol codecs (bufio, etc.) can sit on top unchanged. A Conn is
// owned by one actor; SetClock re-seats it (a server hands an accepted
// conn to a worker thread, which then charges its own virtual clock).
type Conn struct {
	ep  *endpoint
	clk *simnet.VClock

	rbuf []byte // carry-over from a partially consumed segment

	// NoDelay is TCP_NODELAY. The model has no Nagle delay (the paper
	// sets TCP_NODELAY on every connection), so it changes nothing; it
	// stays for benchmark/probes.go, which assigns it.
	NoDelay bool
}

var _ io.ReadWriteCloser = (*Conn)(nil)

// SetClock re-seats the connection onto a different actor's clock.
func (c *Conn) SetClock(clk *simnet.VClock) { c.clk = clk }

// Write sends len(b) bytes, charging syscall, copy and per-segment
// costs, and stamping each segment with its computed arrival time.
// It never blocks for window space (closed-loop request/response
// workloads keep streams shallow; see package docs).
func (c *Conn) Write(b []byte) (int, error) {
	ep := c.ep
	peer := ep.peer
	if ep.closed || peer == nil {
		return 0, errClosed
	}
	p := ep.p
	c.clk.Advance(p.SendSyscall)
	if p.SendCopies > 0 {
		c.clk.Advance(simnet.BytesDuration(len(b)*p.SendCopies, p.CopyBytesPerSec))
	}
	written := 0
	for written < len(b) {
		n := len(b) - written
		if n > p.SegmentSize {
			n = p.SegmentSize
		}
		c.clk.Advance(p.PerSegment)
		sendAt := c.clk.Now()
		if p.Jitter != nil {
			sendAt += p.Jitter(ep.rng)
		}
		arrive, outcome, err := p.Fabric.DeliverFaulty(ep.node, peer.node, sendAt+p.SendDeferred, n+p.WireHeader)
		if err != nil {
			return written, errUnreachable
		}
		if outcome != simnet.Delivered {
			// Kernel TCP retransmission: the caller's thread is NOT
			// blocked (the stack retransmits asynchronously), but the
			// segment's arrival is pushed out by the RTO, which starts at
			// RTOMin and doubles per attempt — the 200 ms floor is why
			// loss collapses sockets tail latency while verbs-level
			// retransmission (µs ack timeouts) barely registers.
			rto := p.RTOMin
			txAt := sendAt + p.SendDeferred
			ok := false
			for r := 0; r < rtoRetries; r++ {
				p.retransmits++
				txAt += rto
				rto *= 2
				arrive, outcome, err = p.Fabric.DeliverFaulty(ep.node, peer.node, txAt, n+p.WireHeader)
				if err != nil {
					return written, errUnreachable
				}
				if outcome == simnet.Delivered {
					ok = true
					break
				}
			}
			if !ok {
				return written, errUnreachable
			}
		}
		chunk := peer.takeSeg(n)
		copy(chunk, b[written:written+n])
		peer.in.Put(segment{data: chunk, arrive: arrive + p.RecvDeferred})
		written += n
	}
	return written, nil
}

// Read fills b with at least one byte, blocking until data arrives.
// The receive syscall cost is charged when the read actually takes data
// off the network (not when draining buffered carry-over).
func (c *Conn) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	if len(c.rbuf) > 0 {
		return c.consume(b), nil
	}
	seg, ok := c.ep.in.Recv()
	if !ok {
		return 0, io.EOF
	}
	c.arrived(seg)
	return c.consume(b), nil
}

// arrived charges arrival costs for a segment and buffers its bytes,
// then opportunistically drains whatever else already arrived (one
// wakeup can harvest several segments, as with real epoll).
func (c *Conn) arrived(seg segment) {
	p := c.ep.p
	c.clk.AdvanceTo(seg.arrive)
	c.clk.Advance(p.RecvSyscall)
	c.buffer(seg)
	for {
		var more segment
		ok, empty := c.ep.in.TryRecvBy(c.clk.Now(), segArrive, &more)
		if ok {
			c.buffer(more)
		}
		if !ok || empty {
			return
		}
	}
}

// buffer charges the receive copies for one segment, appends its bytes
// to the carry-over buffer and recycles the segment's own buffer.
func (c *Conn) buffer(seg segment) {
	if p := c.ep.p; p.RecvCopies > 0 {
		c.clk.Advance(simnet.BytesDuration(len(seg.data)*p.RecvCopies, p.CopyBytesPerSec))
	}
	c.rbuf = append(c.rbuf, seg.data...)
	c.ep.putSeg(seg.data)
}

func (c *Conn) consume(b []byte) int {
	n := copy(b, c.rbuf)
	// Slide the remainder to the front instead of re-slicing so the
	// carry-over buffer keeps its full capacity: a long-lived connection
	// reaches a steady state where arrivals append into existing backing
	// memory and the read path stops allocating.
	rem := copy(c.rbuf, c.rbuf[n:])
	c.rbuf = c.rbuf[:rem]
	return n
}

// Buffered reports bytes already delivered but not yet consumed.
func (c *Conn) Buffered() int { return len(c.rbuf) + c.ep.in.Len() }

// SetOwner makes actor a the connection's reader: every arriving segment
// (and the stream's close) makes a ready, ordered by arrival, and lists
// tag in a.TakeReady.
func (c *Conn) SetOwner(a *simnet.Actor, tag any) { c.ep.in.SetOwner(a, tag, segArrive) }

func segArrive(seg *segment) simnet.Time { return seg.arrive }

// StreamClosed reports whether the incoming stream has been shut; with
// Buffered()==0 it means reads would return io.EOF.
func (c *Conn) StreamClosed() bool { return c.ep.in.Closed() }

// Close shuts both directions: the peer's pending data stays readable,
// after which its reads return io.EOF.
func (c *Conn) Close() error {
	ep := c.ep
	if ep.closed {
		return nil
	}
	ep.closed = true
	ep.in.Close()
	if peer := ep.peer; peer != nil {
		peer.closed = true
		peer.in.Close()
	}
	return nil
}
