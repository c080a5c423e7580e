package simnet

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// stamped is a test message carrying its virtual arrival time.
type stamped struct {
	at    Time
	reply *Mailbox[int]
	v     int
}

func stampOf(m *stamped) Time { return m.at }

// echoActor registers an actor that answers every request on in with
// v+1 and counts its steps.
func echoActor(ex *Executor) (in *Mailbox[stamped], a *Actor, steps *int) {
	in = NewMailboxOn[stamped](ex)
	steps = new(int)
	a = ex.NewActor(func() {
		*steps++
		for {
			m, ok, _ := in.TryRecv()
			if !ok {
				return
			}
			m.reply.Put(m.v + 1)
		}
	})
	in.SetOwner(a, nil, stampOf)
	return in, a, steps
}

// waitOrFail runs fn and fails the test if it has not returned in 10 s.
func waitOrFail(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: hung", what)
	}
}

func TestExecutorStepsActorOnWaitingCaller(t *testing.T) {
	ex := NewNetwork().Executor()
	in, _, steps := echoActor(ex)
	reply := NewMailboxOn[int](ex)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		in.Put(stamped{reply: reply, v: i})
		if *steps != i {
			t.Fatalf("actor stepped before anyone waited: %d steps after %d round trips", *steps, i)
		}
		if v, ok := reply.Recv(); !ok || v != i+1 {
			t.Fatalf("round trip %d = (%d, %v)", i, v, ok)
		}
	}
	if *steps != 100 {
		t.Errorf("steps = %d, want one per round trip (100): an idle actor must not be stepped", *steps)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

func TestExecutorBookkeepingAllocatesNothing(t *testing.T) {
	ex := NewNetwork().Executor()
	in, _, _ := echoActor(ex)
	reply := NewMailboxOn[int](ex)
	trip := func() {
		in.Put(stamped{reply: reply})
		reply.Recv()
	}
	trip()
	if n := testing.AllocsPerRun(200, trip); n != 0 {
		t.Errorf("round trip through an actor allocates %.1f times", n)
	}
}

// The ready list is ordered by earliest pending stamp, then actor id,
// whatever order the messages were put in.
func TestExecutorReadyOrder(t *testing.T) {
	ex := NewNetwork().Executor()
	var order []int
	reply := NewMailboxOn[int](ex)
	boxes := make([]*Mailbox[stamped], 4)
	for i := range boxes {
		in := NewMailboxOn[stamped](ex)
		a := ex.NewActor(func() {
			order = append(order, i)
			for {
				if _, ok, _ := in.TryRecv(); !ok {
					break
				}
			}
			if len(order) == len(boxes) {
				reply.Put(0)
			}
		})
		in.SetOwner(a, nil, stampOf)
		boxes[i] = in
	}
	boxes[3].Put(stamped{at: 50})
	boxes[1].Put(stamped{at: 70})
	boxes[2].Put(stamped{at: 20})
	boxes[0].Put(stamped{at: 70})
	boxes[3].Put(stamped{at: 10}) // an earlier stamp moves a linked actor up
	boxes[2].Put(stamped{at: 90}) // a later one does not move it down
	reply.Recv()
	want := []int{3, 2, 0, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("step order = %v, want %v", order, want)
		}
	}
}

// An actor that blocks inside its step runs other actors meanwhile and
// is not re-entered, even though messages keep arriving for it.
func TestExecutorNestedWait(t *testing.T) {
	ex := NewNetwork().Executor()
	reply := NewMailboxOn[int](ex)
	first, second := NewMailboxOn[stamped](ex), NewMailboxOn[stamped](ex)
	depth, maxDepth, got := 0, 0, 0
	a := ex.NewActor(func() {
		depth++
		maxDepth = max(maxDepth, depth)
		defer func() { depth-- }()
		if _, ok, _ := first.TryRecv(); !ok {
			return
		}
		// The rest of the "command" comes from the helper actor, which
		// only runs if this wait steps it.
		m, ok := second.Recv()
		if !ok {
			t.Error("nested wait saw a closed mailbox")
		}
		got = m.v
		reply.Put(m.v)
	})
	first.SetOwner(a, nil, stampOf)
	second.SetOwner(a, nil, stampOf)
	in, _, _ := echoActor(ex)
	helperReply := NewMailboxOn[int](ex)
	helper := ex.NewActor(func() {
		for {
			v, ok, _ := helperReply.TryRecv()
			if !ok {
				return
			}
			first.Put(stamped{}) // lands while a is mid-step: must not re-enter it
			second.Put(stamped{v: v})
		}
	})
	helperReply.SetOwner(helper, nil, nil)

	first.Put(stamped{at: 1})
	in.Put(stamped{at: 2, reply: helperReply, v: 41})
	waitOrFail(t, "nested wait", func() { reply.Recv() })
	if got != 42 {
		t.Errorf("nested wait received %d, want 42", got)
	}
	if maxDepth != 1 {
		t.Errorf("actor re-entered: depth %d", maxDepth)
	}
	// The message that arrived mid-step is still served afterwards.
	second.Put(stamped{v: 7})
	waitOrFail(t, "follow-up", func() {
		if v, _ := reply.Recv(); v != 7 {
			t.Errorf("follow-up = %d, want 7", v)
		}
	})
}

// Sixteen goroutines share four echo actors: every round trip completes
// although only one goroutine steps at a time and holders come and go —
// no wake-up is lost, and no caller is told the simulation is idle while
// its reply is still owed.
func TestExecutorNoLostWakeup(t *testing.T) {
	ex := NewNetwork().Executor()
	var ins []*Mailbox[stamped]
	for i := 0; i < 4; i++ {
		in, _, _ := echoActor(ex)
		ins = append(ins, in)
	}
	const callers, trips = 16, 2000
	waitOrFail(t, "16-goroutine stress", func() {
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				reply := NewMailboxOn[int](ex)
				for i := 0; i < trips; i++ {
					// Fire-and-forget traffic leaves actors ready while
					// this caller is not waiting for them.
					ins[(g+1)%len(ins)].Put(stamped{at: Time(i), reply: NewMailbox[int]()})
					ins[(g+i)%len(ins)].Put(stamped{at: Time(i), reply: reply, v: i})
					if v, ok, idle := reply.RecvIdle(); !ok || idle || v != i+1 {
						t.Errorf("caller %d trip %d = (%d, %v, idle=%v)", g, i, v, ok, idle)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// A mailbox nobody owns — plain, or on an executor whose actors (if any)
// are idle — parks and wakes its receiver like a plain queue.
func TestMailboxWithoutOwner(t *testing.T) {
	for name, mk := range map[string]func() *Mailbox[int]{
		"plain":       NewMailbox[int],
		"no actors":   func() *Mailbox[int] { return NewMailboxOn[int](NewNetwork().Executor()) },
		"idle actors": func() *Mailbox[int] { ex := NewNetwork().Executor(); echoActor(ex); return NewMailboxOn[int](ex) },
	} {
		t.Run(name, func(t *testing.T) {
			ping, pong := mk(), mk()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					v, ok := ping.Recv()
					if !ok {
						return
					}
					pong.Put(v)
				}
			}()
			for i := 0; i < 1000; i++ {
				ping.Put(i)
				if v, ok := pong.Recv(); !ok || v != i {
					t.Fatalf("echo %d = (%d, %v)", i, v, ok)
				}
			}
			// The peer, parked in Recv with nothing to act on, keeps no
			// one waiting.
			if _, ok, idle := pong.RecvIdle(); ok || !idle {
				t.Error("empty mailbox beside a parked peer: expected idle")
			}
			ping.PutFront(9)
			ping.Close()
			waitOrFail(t, "close", func() { <-done })
			if v, ok := pong.Recv(); !ok || v != 9 {
				t.Errorf("message queued before Close = (%d, %v), want (9, true)", v, ok)
			}
		})
	}
}

// A server that closes with requests in flight — accepted, not yet
// answered — wakes every waiting caller with a closed reply mailbox, and
// its actor never runs again.
func TestExecutorStopWakesWaiters(t *testing.T) {
	ex := NewNetwork().Executor()
	in := NewMailboxOn[stamped](ex)
	const callers = 8
	var held []stamped
	got := make(chan struct{}, callers)
	steps := 0
	srv := ex.NewActor(func() {
		steps++
		for {
			m, ok, _ := in.TryRecv()
			if !ok {
				return
			}
			held = append(held, m) // never answered
			got <- struct{}{}
		}
	})
	in.SetOwner(srv, nil, stampOf)

	errs := make(chan bool, callers)
	for g := 0; g < callers; g++ {
		reply := NewMailboxOn[int](ex)
		in.Put(stamped{reply: reply})
		go func() {
			_, ok := reply.Recv()
			errs <- !ok
		}()
	}
	// Wait until the server has every request, then close it.
	for g := 0; g < callers; g++ {
		<-got
	}
	srv.Stop()
	for _, m := range held {
		m.reply.Close()
	}
	for g := 0; g < callers; g++ {
		select {
		case failed := <-errs:
			if !failed {
				t.Error("a caller got a reply from a server that never sent one")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter was not woken by the close")
		}
	}
	before := steps
	in.Put(stamped{reply: NewMailboxOn[int](ex)})
	if _, _, idle := NewMailboxOn[int](ex).RecvIdle(); !idle {
		t.Error("a request to a stopped actor must leave the simulation idle")
	}
	if steps != before {
		t.Error("a stopped actor was stepped")
	}
}

// The owner excludes steps: a reader holding it (Enter) sees
// actor-private state race-free while other goroutines, each holding it
// for a round trip, drive the actor's steps (meaningful under -race).
// This is how a server's counters are read while clients run.
func TestExecutorEnterExcludesSteps(t *testing.T) {
	ex := NewNetwork().Executor()
	in := NewMailboxOn[stamped](ex)
	served := 0 // actor-private: no synchronization of its own
	a := ex.NewActor(func() {
		for {
			m, ok, _ := in.TryRecv()
			if !ok {
				return
			}
			served++
			m.reply.Put(served)
		}
	})
	in.SetOwner(a, nil, stampOf)
	const callers, trips = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := NewMailboxOn[int](ex)
			for i := 0; i < trips; i++ {
				ex.Enter()
				in.Put(stamped{reply: reply})
				reply.Recv()
				ex.Exit()
			}
		}()
	}
	last := 0
	for last < callers*trips {
		ex.Enter()
		if served < last {
			t.Errorf("served went backwards: %d after %d", served, last)
		}
		last = served
		ex.Exit()
	}
	wg.Wait()
}

func TestBlockingReceiveOutsideStepPanics(t *testing.T) {
	ex := NewNetwork().Executor()
	in, _, _ := echoActor(ex)
	defer func() {
		if recover() == nil {
			t.Error("a blocking receive on an owned mailbox from outside its actor's step must panic")
		}
	}()
	in.Recv()
}

// An actor that leaves messages unconsumed is stepped once per arrival,
// not forever: a caller waiting for something that never comes is told
// the simulation is idle.
func TestExecutorIdleActorIsNotRestepped(t *testing.T) {
	ex := NewNetwork().Executor()
	in := NewMailboxOn[stamped](ex)
	steps := 0
	a := ex.NewActor(func() { steps++ }) // consumes nothing
	in.SetOwner(a, nil, stampOf)
	in.Put(stamped{})
	in.Put(stamped{})
	waitOrFail(t, "wait beside a stuck actor", func() {
		if _, ok, idle := NewMailboxOn[int](ex).RecvIdle(); ok || !idle {
			t.Error("expected idle")
		}
	})
	if steps != 1 {
		t.Errorf("steps = %d, want 1", steps)
	}
}

// waitParked returns once n callers are parked on ex.
func waitParked(t *testing.T, ex *Executor, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		ex.mu.Lock()
		parked := len(ex.parked)
		ex.mu.Unlock()
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked, want %d", parked, n)
		}
	}
}

// idleWaiter starts a goroutine in RecvIdle on a fresh mailbox of ex and
// returns the channel its verdict arrives on.
func idleWaiter(ex *Executor) (idle chan bool) {
	box, idle := NewMailboxOn[int](ex), make(chan bool, 1)
	go func() {
		_, _, gaveUp := box.RecvIdle()
		idle <- gaveUp
	}()
	return idle
}

// stillWaiting fails the test if the idle-waiter has already returned.
func stillWaiting(t *testing.T, idle chan bool, why string) {
	t.Helper()
	select {
	case gaveUp := <-idle:
		t.Fatalf("RecvIdle returned (idle=%v) %s", gaveUp, why)
	case <-time.After(2 * time.Millisecond):
	}
}

// With nobody else in sight a dead wait is known at once: no park, no
// timer, no allocation.
func TestRecvIdleLoneCaller(t *testing.T) {
	ex := NewNetwork().Executor()
	in, _, steps := echoActor(ex)
	box := NewMailboxOn[int](ex)
	if _, ok, idle := box.RecvIdle(); ok || !idle {
		t.Fatalf("empty mailbox, idle actor: (ok=%v, idle=%v), want idle", ok, idle)
	}
	if n := testing.AllocsPerRun(100, func() { box.RecvIdle() }); n != 0 {
		t.Errorf("an idle verdict allocates %.1f times", n)
	}
	// A message that is owed is delivered, not given up on.
	in.Put(stamped{reply: box, v: 1})
	if v, ok, idle := box.RecvIdle(); !ok || idle || v != 2 {
		t.Fatalf("owed reply = (%d, ok=%v, idle=%v), want (2, true, false)", v, ok, idle)
	}
	if *steps != 1 {
		t.Errorf("steps = %d, want 1: idle verdicts must not step an idle actor", *steps)
	}
	box.Close()
	if _, ok, idle := box.RecvIdle(); ok || idle {
		t.Errorf("closed mailbox = (ok=%v, idle=%v), want closed, not idle", ok, idle)
	}
}

// A caller that parked behind a holder is re-woken when the holder
// leaves with nothing left to step.
func TestRecvIdleHolderLeaves(t *testing.T) {
	ex := NewNetwork().Executor()
	in := NewMailboxOn[stamped](ex)
	inStep, endStep := make(chan struct{}), make(chan struct{})
	a := ex.NewActor(func() {
		m, _, _ := in.TryRecv()
		close(inStep)
		<-endStep
		m.reply.Put(1)
	})
	in.SetOwner(a, nil, stampOf)
	reply := NewMailboxOn[int](ex)
	in.Put(stamped{reply: reply})
	held := make(chan bool, 1)
	go func() {
		_, ok := reply.Recv() // the holder: steps a on this goroutine
		held <- ok
	}()
	<-inStep
	idle := idleWaiter(ex)
	waitParked(t, ex, 1)
	stillWaiting(t, idle, "while a step was running")
	close(endStep)
	waitOrFail(t, "the holder leaving", func() {
		if !<-held {
			t.Error("holder lost its reply")
		}
		if !<-idle {
			t.Error("want idle once the holder left")
		}
	})
}

// A parked caller with a message waiting is about to act on it: the
// simulation is not quiet until it has left.
func TestRecvIdleParkedPeerWithMessage(t *testing.T) {
	ex := NewNetwork().Executor()
	peer := NewMailboxOn[int](ex)
	got := make(chan int, 1)
	go func() {
		v, _ := peer.Recv()
		got <- v
	}()
	waitParked(t, ex, 1)
	// With the executor locked the peer cannot leave the parked list, so
	// what quiet sees is exactly "parked, message waiting". The mailbox's
	// lock is the executor's, so the Put runs as put, under it.
	ex.mu.Lock()
	before := ex.quiet(nil)
	peer.put(7)
	after := ex.quiet(nil)
	ex.mu.Unlock()
	if !before || after {
		t.Errorf("quiet = %v before the Put, %v after; want true, false", before, after)
	}
	if v := <-got; v != 7 {
		t.Errorf("peer received %d", v)
	}
	if _, _, idle := NewMailboxOn[int](ex).RecvIdle(); !idle {
		t.Error("want idle once the peer has left")
	}
}

// A step stuck in a RecvIdle of its own gives up before the callers that
// wait on it, and steps stuck at the same time do not keep each other
// waiting: a mutual wait ends innermost first, with no clock involved.
func TestRecvIdleNestedGivesUpFirst(t *testing.T) {
	ex := NewNetwork().Executor()
	var order []string
	// stuck registers an actor whose step waits for a message that never
	// comes and answers its requests only after giving up.
	stuck := func(name string, gate chan struct{}) *Mailbox[stamped] {
		in, never := NewMailboxOn[stamped](ex), NewMailboxOn[stamped](ex)
		a := ex.NewActor(func() {
			if gate != nil {
				<-gate
			}
			if _, ok, idle := never.RecvIdle(); ok || !idle {
				t.Errorf("%s: nested wait = (ok=%v, idle=%v), want idle", name, ok, idle)
			}
			order = append(order, name)
			for {
				m, ok, _ := in.TryRecv()
				if !ok {
					return
				}
				m.reply.Put(m.v)
			}
		})
		in.SetOwner(a, nil, stampOf)
		never.SetOwner(a, nil, stampOf)
		return in
	}

	// One goroutine: a's nested wait steps b, whose nested wait is stuck
	// too; b gives up, then a, and the caller still gets both replies.
	a, b := stuck("a", nil), stuck("b", nil)
	reply := NewMailboxOn[int](ex)
	a.Put(stamped{at: 1, reply: reply, v: 1})
	b.Put(stamped{at: 2, reply: reply, v: 2})
	waitOrFail(t, "two stuck steps on one goroutine", func() {
		for want := 2; want >= 1; want-- {
			if v, ok, idle := reply.RecvIdle(); !ok || idle || v != want {
				t.Errorf("reply = (%d, ok=%v, idle=%v), want %d", v, ok, idle, want)
			}
		}
	})
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("gave up in order %v, want [b a]", order)
	}

	// Two goroutines: a caller parked in RecvIdle while the step is stuck
	// is not told "idle" — the step gives up first and replies.
	gate := make(chan struct{})
	c := stuck("c", gate)
	other := NewMailboxOn[int](ex)
	c.Put(stamped{reply: reply, v: 3})
	c.Put(stamped{reply: other, v: 4})
	verdict := make(chan [2]bool, 2)
	go func() {
		_, ok, idle := reply.RecvIdle() // steps c on this goroutine
		verdict <- [2]bool{ok, idle}
	}()
	for stepping := false; !stepping; time.Sleep(100 * time.Microsecond) {
		ex.mu.Lock()
		stepping = ex.running > 0
		ex.mu.Unlock()
	}
	go func() {
		_, ok, idle := other.RecvIdle() // parks beside the running step
		verdict <- [2]bool{ok, idle}
	}()
	waitParked(t, ex, 1)
	close(gate)
	waitOrFail(t, "a stuck step beside a parked caller", func() {
		for i := 0; i < 2; i++ {
			if v := <-verdict; !v[0] || v[1] {
				t.Errorf("caller = (ok=%v, idle=%v), want its reply", v[0], v[1])
			}
		}
	})
}
