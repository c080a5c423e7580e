package verbs

import (
	"errors"
	"time"

	"repro/internal/simnet"
)

// CM is a connection manager: the rendezvous service that pairs RC
// queue pairs across nodes (the role RDMA-CM / IB CM plays on real
// fabrics). One CM instance serves one fabric; deployments share it by
// handle.
//
// The exchange is modelled as one request/reply round trip of small
// management datagrams, charged to both sides' clocks.
type CM struct {
	fabric    *simnet.Fabric
	listeners map[string]*Listener // by service name
}

// Connection-manager errors.
var (
	ErrRefused        = errors.New("verbs/cm: connection refused (no listener)")
	errConnectTimeout = errors.New("verbs/cm: connect timed out")
	ErrListenerClosed = errors.New("verbs/cm: listener closed")
	errDuplicateSvc   = errors.New("verbs/cm: service already registered")
)

// NewCM creates a connection manager for the fabric.
func NewCM(fabric *simnet.Fabric) *CM {
	return &CM{fabric: fabric, listeners: make(map[string]*Listener)}
}

// cmMsgBytes is the on-the-wire size of one management datagram.
const cmMsgBytes = 64

// ConnRequest is a pending connection attempt delivered to a listener.
type ConnRequest struct {
	fromQP   *QP
	arriveAt simnet.Time
	reply    *simnet.Mailbox[connReply]
}

type connReply struct {
	qp     *QP
	sentAt simnet.Time
	err    error
}

// RemoteQP reports the dialer's queue pair.
func (r *ConnRequest) RemoteQP() *QP { return r.fromQP }

// reqArrival reports the virtual time a queued request reached the
// listener.
func reqArrival(r **ConnRequest) simnet.Time { return (*r).arriveAt }

// Accept completes the handshake: qp (owned by the acceptor, already
// INIT or later, with receives posted) is paired with the dialer's QP
// and both ends are driven to RTS. RC queue pairs are wired 1:1; UD
// queue pairs merely learn each other (the caller builds address handles
// from the exchanged QPs). The acceptor's clock must already have been
// synchronized with the request's arrival by Listener.Accept.
func (r *ConnRequest) Accept(qp *QP, clk *simnet.VClock) error {
	if qp.Type() != r.fromQP.Type() {
		return errBadState
	}
	// Drive the local QP to RTS from wherever bring-up left it.
	for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
		if qp.state == stateRTS {
			break
		}
		if err := qp.Modify(st); err != nil && qp.state != st {
			return err
		}
	}
	if qp.Type() == RC {
		qp.setRemote(r.fromQP)
		r.fromQP.setRemote(qp)
	}
	r.reply.Put(connReply{qp: qp, sentAt: clk.Now()})
	return nil
}

// Reject declines the request; the dialer's Connect returns err.
func (r *ConnRequest) Reject(err error) {
	r.reply.Put(connReply{err: err})
}

// Listener accepts connection requests for a service name.
type Listener struct {
	cm      *CM
	service string
	queue   *simnet.Mailbox[*ConnRequest]
}

// Listen registers a service. Service names are fabric-wide unique.
func (cm *CM) Listen(service string) (*Listener, error) {
	if _, dup := cm.listeners[service]; dup {
		return nil, errDuplicateSvc
	}
	l := &Listener{cm: cm, service: service, queue: simnet.NewMailboxOn[*ConnRequest](cm.fabric.Executor())}
	cm.listeners[service] = l
	return l, nil
}

// Accept blocks for the next request and synchronizes clk with its
// arrival. ok=false means the listener was closed.
func (l *Listener) Accept(clk *simnet.VClock) (*ConnRequest, bool) {
	req, ok := l.queue.Recv()
	if !ok {
		return nil, false
	}
	clk.AdvanceTo(req.arriveAt)
	return req, true
}

// TryAccept is Accept for an accept loop that must not block: ok=false
// means no request is pending.
func (l *Listener) TryAccept(clk *simnet.VClock) (*ConnRequest, bool) {
	req, ok, _ := l.queue.TryRecv()
	if !ok {
		return nil, false
	}
	clk.AdvanceTo(req.arriveAt)
	return req, true
}

// SetOwner makes actor a the listener's acceptor: every request makes a
// ready, ordered by its arrival.
func (l *Listener) SetOwner(a *simnet.Actor) { l.queue.SetOwner(a, nil, reqArrival) }

// Close unregisters the service and wakes pending Accepts.
func (l *Listener) Close() {
	delete(l.cm.listeners, l.service)
	l.queue.Close()
}

// Connect dials a service on a remote node: it sends a management
// request, waits for the acceptor, and pairs qp with the accepted peer,
// which is returned (RC pairs are wired; for UD the caller builds an
// address handle from the peer). qp must be a fresh queue pair, already
// INIT or later with receives posted, owned by the caller.
//
// An acceptor that never answers ends the wait with errConnectTimeout.
// When the listener belongs to an actor the executor can tell (the
// simulation goes idle) and realCap is unused; an acceptor on a goroutine
// of its own may simply not have started, so only then does realCap
// bound the wait in real time.
func (cm *CM) Connect(qp *QP, remote *simnet.Node, service string, clk *simnet.VClock, realCap time.Duration) (*QP, error) {
	l, ok := cm.listeners[service]
	if !ok {
		// Refused replies still cost a round trip.
		if arrive, err := cm.fabric.Deliver(qp.hca.node, remote, clk.Now(), cmMsgBytes); err == nil {
			if back, err := cm.fabric.Deliver(remote, qp.hca.node, arrive, cmMsgBytes); err == nil {
				clk.AdvanceTo(back)
			}
		}
		return nil, ErrRefused
	}
	arrive, err := cm.fabric.Deliver(qp.hca.node, remote, clk.Now(), cmMsgBytes)
	if err != nil {
		return nil, err
	}
	req := &ConnRequest{
		fromQP:   qp,
		arriveAt: arrive,
		reply:    simnet.NewMailboxOn[connReply](cm.fabric.Executor()),
	}
	l.queue.Put(req)

	var rep connReply
	var timedOut bool
	if l.queue.Owned() {
		rep, ok, timedOut = req.reply.RecvIdle()
	} else {
		rep, ok, timedOut = req.reply.RecvTimeout(realCap)
	}
	if timedOut {
		return nil, errConnectTimeout
	}
	if !ok {
		return nil, ErrListenerClosed
	}
	if rep.err != nil {
		return nil, rep.err
	}
	back, err := cm.fabric.Deliver(rep.qp.hca.node, qp.hca.node, rep.sentAt, cmMsgBytes)
	if err != nil {
		return nil, err
	}
	clk.AdvanceTo(back)
	// Drive the dialer side to RTS.
	for _, st := range []QPState{StateInit, stateRTR, stateRTS} {
		if qp.state == stateRTS {
			break
		}
		if err := qp.Modify(st); err != nil && qp.state != st {
			return nil, err
		}
	}
	return rep.qp, nil
}
