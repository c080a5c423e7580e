package simnet

import "time"

// Mailbox is an unbounded, closeable queue of timestamped messages. It is
// the delivery mechanism shared by the transport layers: the sender
// computes an arrival stamp with Fabric.Deliver and posts the real payload
// here; the receiver blocks until something is present and then advances
// its virtual clock to the stamp.
//
// The queue is unbounded on purpose: back-pressure in the simulated
// system is modelled explicitly (verbs receive queues, UCR credits,
// socket windows), not by accidental blocking of the in-process plumbing.
//
// Storage is a head-indexed ring so a steady-state producer/consumer pair
// never reallocates: the hot serving paths (CQ drains, socket segments)
// cycle through the same backing array instead of re-growing an
// append-and-reslice queue.
//
// A mailbox has exactly one receiver. Its blocking receive is the one
// place the simulation waits: the wait steps the ready actors of the
// mailbox's executor on the calling goroutine, and a mailbox given to an
// actor with SetOwner makes that actor ready on every Put. Recv waits for
// as long as it takes; RecvIdle gives up when the executor can tell that
// nothing will come.
type Mailbox[T any] struct {
	receiver
	buf   []T // ring storage; len(buf) is the capacity
	head  int // index of the oldest queued message
	stamp func(*T) Time
}

// receiver is the part of a mailbox that does not depend on the message
// type: what the receiving side and the executor share. Everything in a
// mailbox is guarded by its executor's mu: a Put to an owned mailbox
// queues the message and links the actor under one lock.
type receiver struct {
	n       int // queued message count
	closed  bool
	waiting bool          // the receiver is parked: the next change sends a wake token
	wake    chan struct{} // capacity 1

	ex     *Executor
	owner  *Actor // nil: received by an ordinary goroutine
	tag    any    // what Actor.TakeReady reports for this mailbox
	listed bool   // in owner.news
	slot   int    // index in ex.parked while parked
	idle   bool   // parked in RecvIdle
}

// NewMailbox returns an empty open mailbox on an executor of its own:
// with no actor to step, its blocking receives just park.
func NewMailbox[T any]() *Mailbox[T] { return NewMailboxOn[T](newExecutor()) }

// NewMailboxOn returns an empty open mailbox whose blocking receives step
// ex's actors while they wait.
func NewMailboxOn[T any](ex *Executor) *Mailbox[T] {
	return &Mailbox[T]{receiver: receiver{wake: make(chan struct{}, 1), ex: ex}}
}

// SetOwner hands the mailbox to actor a, on whose executor it must have
// been made: from now on a Put or Close makes a ready, ordered by
// stamp(&msg) (nil: stamp 0), and only a's step may receive from it. A
// non-nil tag lists the mailbox in a.TakeReady whenever it changes.
// Messages already queued count.
func (m *Mailbox[T]) SetOwner(a *Actor, tag any, stamp func(*T) Time) {
	if m.ex != a.ex {
		panic("simnet: mailbox and owner are on different executors")
	}
	m.ex.mu.Lock()
	m.owner, m.tag, m.stamp = a, tag, stamp
	a.pending += m.n
	if m.n > 0 || m.closed {
		m.ex.link(&m.receiver, 0, true)
	}
	m.ex.mu.Unlock()
}

func (r *receiver) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// arrived reports whether a receive would not block (ex.mu held).
func (r *receiver) arrived() bool { return r.n > 0 || r.closed }

// arm marks the receiver parked unless a receive would not block (ex.mu
// held).
func (r *receiver) arm() bool {
	r.waiting = r.n == 0 && !r.closed
	return r.waiting
}

// changed runs after a Put or Close, with ex.mu held: the owner becomes
// ready and a parked receiver wakes.
func (r *receiver) changed(at Time, closed bool) {
	if r.owner != nil {
		r.ex.link(r, at, closed)
	}
	if r.waiting {
		r.waiting = false
		r.signal()
	}
}

// grow doubles the ring (called with ex.mu held, when full).
func (m *Mailbox[T]) grow() {
	newCap := len(m.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < m.n; i++ {
		nb[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf = nb
	m.head = 0
}

// Put appends a message. Putting to a closed mailbox is a silent no-op
// (the peer went away; the bytes fall on the floor, as on a real wire).
func (m *Mailbox[T]) Put(msg T) {
	m.ex.mu.Lock()
	m.put(msg)
	m.ex.mu.Unlock()
}

// put is Put with ex.mu held.
func (m *Mailbox[T]) put(msg T) {
	if m.closed {
		return
	}
	if m.n == len(m.buf) {
		m.grow()
	}
	slot := &m.buf[(m.head+m.n)%len(m.buf)]
	*slot = msg
	m.n++
	var at Time
	if m.owner != nil {
		m.owner.pending++
		if m.stamp != nil {
			at = m.stamp(slot)
		}
	}
	m.changed(at, false)
}

// PutFront pushes a message back to the head of the queue. Receivers use
// it to undo a Recv they were not yet entitled to (e.g. a completion
// stamped beyond the waiter's deadline) without scrambling FIFO order.
// Putting to a closed mailbox is a no-op.
func (m *Mailbox[T]) PutFront(msg T) {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	if m.closed {
		return
	}
	if m.n == len(m.buf) {
		m.grow()
	}
	m.head--
	if m.head < 0 {
		m.head = len(m.buf) - 1
	}
	m.buf[m.head] = msg
	m.n++
	if m.owner != nil {
		m.owner.pending++
	}
}

// Every receive moves the head message into a *T its caller supplies
// (the ...Into forms and TryRecvBy), so a message is copied once, out of
// the ring into the receiving frame. The forms returning a message are
// one-line wrappers for callers that want it by value.

// TryRecv is TryRecvInto returning the message.
func (m *Mailbox[T]) TryRecv() (msg T, ok, closed bool) { ok, closed = m.TryRecvInto(&msg); return }

// TryRecvInto moves the head message into *dst if one is present.
// ok=false means empty; closed reports whether the mailbox is closed.
func (m *Mailbox[T]) TryRecvInto(dst *T) (ok, closed bool) {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	return m.take(dst)
}

// TryRecvBy is TryRecvInto for a receiver not yet entitled to a message
// stamped after t: such a head stays queued, in one lock hold. It also
// reports whether the queue is empty as it returns, so a drain that ran
// it dry knows without probing again.
func (m *Mailbox[T]) TryRecvBy(t Time, stamp func(*T) Time, dst *T) (ok, empty bool) {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	if m.n > 0 && stamp(&m.buf[m.head]) <= t {
		ok, _ = m.take(dst)
	}
	return ok, m.n == 0
}

// take is TryRecvInto with ex.mu held: the one place a message leaves
// the ring.
func (m *Mailbox[T]) take(dst *T) (ok, closed bool) {
	if m.n == 0 {
		return false, m.closed
	}
	*dst = m.buf[m.head]
	// Avoid retaining the element.
	var zero T
	m.buf[m.head] = zero
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	if m.owner != nil {
		m.owner.pending--
	}
	m.release()
	return true, m.closed
}

// Recv blocks until a message is available or the mailbox is closed and
// drained. ok=false means closed-and-empty. It is the receive to use when
// the sender may be a goroutine that has simply not sent yet.
func (m *Mailbox[T]) Recv() (msg T, ok bool) { ok, _ = m.recv(&msg, false, 0); return }

// RecvIdleInto is Recv into *dst for a wait that has a failure path: it
// steps actors the same way but, where Recv would park for good,
// returns idle=true once the simulation is quiescent — no actor of the
// executor is ready or running and no parked caller has a message to
// act on, so nothing in view can ever send. A dead peer is thus found
// without consulting any clock; the caller decides what the silence
// costs in virtual time.
func (m *Mailbox[T]) RecvIdleInto(dst *T) (ok, idle bool) { return m.recv(dst, true, 0) }

// RecvIdle is RecvIdleInto returning the message.
func (m *Mailbox[T]) RecvIdle() (msg T, ok, idle bool) { ok, idle = m.recv(&msg, true, 0); return }

// RecvTimeout is Recv with a real-time cap on the time spent parked
// (d <= 0: none). It exists for the one wait the idle rule cannot
// decide: a dial whose acceptor is a goroutine that may not have
// started. ok=false with timedOut=true reports the cap fired.
func (m *Mailbox[T]) RecvTimeout(d time.Duration) (msg T, ok, timedOut bool) {
	ok, timedOut = m.recv(&msg, false, d)
	return
}

// recv is the one blocking receive: one hold of ex.mu covers the check,
// the wait and the take.
func (m *Mailbox[T]) recv(dst *T, idle bool, d time.Duration) (ok, gaveUp bool) {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	if !m.arrived() && m.ex.await(&m.receiver, idle, d) {
		return false, true
	}
	ok, _ = m.take(dst)
	return ok, false
}

// Owned reports whether an actor receives from the mailbox (SetOwner).
func (m *Mailbox[T]) Owned() bool {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	return m.owner != nil
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	return m.n
}

// Close marks the mailbox closed and wakes its receiver. Queued messages
// remain receivable.
func (m *Mailbox[T]) Close() {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.release()
	m.changed(0, true)
}

// release drops the ring of a closed, drained mailbox: nothing can be
// put into it again.
func (m *Mailbox[T]) release() {
	if m.closed && m.n == 0 {
		m.buf, m.head = nil, 0
	}
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool {
	m.ex.mu.Lock()
	defer m.ex.mu.Unlock()
	return m.closed
}
