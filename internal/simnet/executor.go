package simnet

import (
	"container/heap"
	"sync"
	"time"
)

// Executor runs a deployment's actors — server workers, accept
// dispatchers — on the goroutines of the callers that wait for them, the
// way a blocked MPI caller drives its progress engine. An actor owns
// mailboxes (Mailbox.SetOwner); a Put into one links the actor onto a
// ready list ordered by (earliest pending virtual stamp, actor id), and
// a blocking receive on any mailbox of the executor steps ready actors
// until its own mailbox has something, parking only when nothing is
// runnable. There is one Executor per Network, so deployments in one
// process never step each other, and it owns no goroutine: a run driven
// from one goroutine is a pure function of the calls made.
//
// The executor is also the deployment's one owner: a product call that
// touches anything beneath it — a transport method, a pipeline's Start
// or Wait, a dial, a fleet membership change — takes it once with Enter
// and holds it through the call's waits, so the layers below (links,
// adapters, queue pairs, UCR runtimes, socket endpoints) are
// single-owner code with no locks of their own. Holding it across a
// wait cannot deadlock: every reply inside a deployment comes from an
// actor the waiter steps itself, and RecvIdle gives up once nothing in
// view can run. Enter does not nest.
//
// Mailboxes are the one hand-off that stays synchronised, under the
// executor's bookkeeping lock, because two kinds of caller still meet
// there without the owner: benchmark/probes.go's goroutine acceptors
// and simnet's own tests (standalone mailbox pairs, goroutines racing
// a stepping loop). Every other goroutine that touches a deployment
// holds its owner, so its waits step actors until the mailbox fills
// and never park. With several ownerless goroutines one at a time holds
// the stepping loop; the rest park. A holder that leaves while actors
// are still ready wakes a parked caller to take over, so a wake-up is
// never lost and nobody polls. Bookkeeping allocates nothing per
// message and charges no virtual time.
//
// Because every actor and every blocked caller is in view, the executor
// also knows when a wait is dead: Mailbox.RecvIdle gives up once the
// simulation is quiescent (see quiet) instead of sleeping to find out.
type Executor struct {
	owner sync.Mutex // the deployment: Enter/Exit, taken before mu

	mu      sync.Mutex // the bookkeeping below and every mailbox of the executor
	ready   readyHeap
	held    bool        // a goroutine is in its stepping loop
	running int         // actors in a step
	waiting int         // of those, steps blocked in a RecvIdle of their own
	parked  []*receiver // callers blocked in await
	nextID  int
	settle  sync.Cond // Stop waits here for a running step to end
}

func newExecutor() *Executor {
	ex := &Executor{}
	ex.settle.L = &ex.mu
	return ex
}

// Enter takes the deployment for one API call; Exit gives it back. Only
// the entry points DESIGN.md lists call them ("One owner per
// deployment"), each exactly once per call: a nested Enter deadlocks.
func (ex *Executor) Enter() { ex.owner.Lock() }

// Exit ends the call Enter began.
func (ex *Executor) Exit() { ex.owner.Unlock() }

// Actor is a state machine stepped by its Executor once for every burst
// of arrivals: step should consume everything pending in the mailboxes
// the actor owns, since what it leaves waits for the next arrival. It
// may block only on a mailbox it owns — the wait runs other actors
// meanwhile and the actor itself is never re-entered; what arrives for
// it then is served by one more step.
type Actor struct {
	ex   *Executor
	id   int
	step func()

	// Guarded by ex.mu.
	pending  int         // messages queued in owned mailboxes
	stamp    Time        // earliest stamp linked since the last step began
	pos      int         // index in ex.ready; -1 when not linked
	news     []*receiver // tagged owned mailboxes that changed since TakeReady
	kicked   bool        // an owned mailbox closed: step even with nothing pending
	dirty    bool        // linked while running
	running  bool
	stopped  bool
	detached bool // the goroutine inside this step parked and gave the executor up
}

// NewActor registers an actor; ids, the ready list's tie-break, follow
// registration order.
func (ex *Executor) NewActor(step func()) *Actor {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.nextID++
	return &Actor{ex: ex, id: ex.nextID, step: step, stamp: Never, pos: -1}
}

// TakeReady appends to buf the tags of the actor's tagged mailboxes that
// received a message or closed since the last call. Called from step.
func (a *Actor) TakeReady(buf []any) []any {
	a.ex.mu.Lock()
	for i, r := range a.news {
		r.listed = false
		buf = append(buf, r.tag)
		a.news[i] = nil
	}
	a.news = a.news[:0]
	a.ex.mu.Unlock()
	return buf
}

// Stop retires the actor: it returns once no step is running and none
// will run again. Puts into its mailboxes still queue but wake nothing.
func (a *Actor) Stop() {
	ex := a.ex
	ex.mu.Lock()
	for a.running {
		ex.settle.Wait()
	}
	if a.pos >= 0 {
		heap.Remove(&ex.ready, a.pos)
	}
	a.stopped, a.stamp = true, Never
	ex.handoff()
	ex.mu.Unlock()
}

// release ends a step: an actor with work left goes back on the ready
// list. It reports whether the step gave the executor up.
func (ex *Executor) release(a *Actor) (detached bool) {
	a.running = false
	ex.running--
	detached, a.detached = a.detached, false
	if !a.stopped && (a.kicked || a.dirty && a.pending > 0) {
		heap.Push(&ex.ready, a)
	} else {
		a.stamp = Never
	}
	ex.settle.Broadcast()
	return detached
}

// link notes a message stamped at (or, with kick, a close) in r, an
// owned mailbox, and makes its actor ready. Called with ex.mu held.
func (ex *Executor) link(r *receiver, at Time, kick bool) {
	a := r.owner
	if a.stopped {
		return
	}
	if r.tag != nil && !r.listed {
		r.listed = true
		a.news = append(a.news, r)
	}
	a.kicked, a.dirty = a.kicked || kick, a.running
	if at < a.stamp {
		a.stamp = at
		if a.pos >= 0 {
			heap.Fix(&ex.ready, a.pos)
		}
	}
	if a.pos < 0 && !a.running {
		heap.Push(&ex.ready, a)
	}
	ex.handoff()
}

// handoff keeps the no-lost-wake-up invariant: whenever an actor is
// ready, a caller is parked and nobody holds the executor, one parked
// caller has a wake token on its way — and so has a parked RecvIdle for
// which the simulation has gone quiet. It runs wherever that can become
// true: a link, a release, a caller parking or leaving.
func (ex *Executor) handoff() {
	if ex.held || len(ex.parked) == 0 {
		return
	}
	if len(ex.ready) > 0 {
		ex.parked[len(ex.parked)-1].signal()
		return
	}
	for _, p := range ex.parked {
		if p.idle && !ex.busy(p.owner) {
			if !ex.mail() {
				p.signal()
			}
			return
		}
	}
}

// quiet reports that nothing the executor can see will run until the
// asking waiter — inside self's step, or an outside caller (nil) — gives
// up: no actor is ready or running (a holder between steps has the lock,
// so nobody is stepping either) and no parked caller has a message to
// act on. Steps that are themselves stuck in a RecvIdle do not count
// against each other, but do against outside callers: a mutual wait ends
// innermost first, and a stuck step gives up before the callers waiting
// on it. Not in view: a goroutine that is neither parked here nor inside
// a step (a peer between two receives).
func (ex *Executor) quiet(self *Actor) bool { return !ex.busy(self) && !ex.mail() }

func (ex *Executor) busy(self *Actor) bool {
	n := ex.running
	if self != nil {
		n -= ex.waiting
	}
	return n > 0 || len(ex.ready) > 0
}

func (ex *Executor) mail() bool {
	for _, p := range ex.parked {
		if p.arrived() {
			return true
		}
	}
	return false
}

// await blocks until r has a message or is closed, stepping ready actors
// on the calling goroutine meanwhile, and reports whether it gave up
// with r still empty: with idle set, once the simulation is quiet; with
// d > 0, after that much real time parked. It is entered and left with
// ex.mu held.
func (ex *Executor) await(r *receiver, idle bool, d time.Duration) (gaveUp bool) {
	// The one receiver of an owned mailbox is its actor, so a blocking
	// receive on one is a wait nested inside that actor's step.
	self := r.owner
	var timer *time.Timer
	if self != nil && !self.running {
		panic("simnet: blocking receive on an owned mailbox outside its actor's step")
	}
	nested := idle && self != nil // self's step is stuck in a RecvIdle meanwhile
	if nested {
		ex.waiting++
	}
	held := self != nil && !self.detached
	for !gaveUp {
		if (held || !ex.held) && len(ex.ready) > 0 {
			if r.arrived() {
				break
			}
			ex.held, held = true, true
			a := heap.Pop(&ex.ready).(*Actor)
			a.running, a.kicked, a.dirty, a.stamp = true, false, false, Never
			ex.running++
			ex.mu.Unlock()
			a.step()
			ex.mu.Lock()
			if ex.release(a) {
				held = false
			}
			continue
		}
		if held {
			ex.held, held = false, false
		}
		if idle && ex.quiet(self) {
			gaveUp = !r.arrived()
			break
		}
		if !r.arm() {
			break
		}
		r.idle, r.slot = idle, len(ex.parked)
		ex.parked = append(ex.parked, r)
		ex.handoff()
		ex.mu.Unlock()
		if d > 0 && timer == nil {
			timer = time.NewTimer(d)
		}
		timedOut := false
		if timer == nil {
			<-r.wake // a plain receive parks cheaper than a select
		} else {
			select {
			case <-r.wake:
			case <-timer.C:
				timedOut = true
			}
		}
		ex.mu.Lock()
		gaveUp = timedOut && !r.arrived()
		last := len(ex.parked) - 1
		ex.parked[r.slot] = ex.parked[last]
		ex.parked[r.slot].slot = r.slot
		ex.parked[last] = nil
		ex.parked = ex.parked[:last]
	}
	if nested {
		ex.waiting--
	}
	if self != nil {
		self.detached = !held
	} else if held {
		ex.held = false
	}
	ex.handoff()
	if timer != nil {
		timer.Stop()
	}
	return gaveUp
}

// readyHeap orders linked actors by (stamp, id).
type readyHeap []*Actor

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	return h[i].stamp < h[j].stamp || h[i].stamp == h[j].stamp && h[i].id < h[j].id
}
func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *readyHeap) Push(x any) {
	a := x.(*Actor)
	a.pos = len(*h)
	*h = append(*h, a)
}
func (h *readyHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	a.pos = -1
	return a
}
