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

func stampOf(m stamped) Time { return m.at }

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
// although only one goroutine steps at a time and holders come and go.
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
					if v, ok, timedOut := reply.RecvTimeout(5 * time.Second); !ok || timedOut || v != i+1 {
						t.Errorf("caller %d trip %d = (%d, %v, timedOut=%v)", g, i, v, ok, timedOut)
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
			if _, ok, timedOut := pong.RecvTimeout(5 * time.Millisecond); ok || !timedOut {
				t.Error("empty mailbox: expected the real-time cap to fire")
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
	var held []stamped
	steps := 0
	srv := ex.NewActor(func() {
		steps++
		for {
			m, ok, _ := in.TryRecv()
			if !ok {
				return
			}
			held = append(held, m) // never answered
		}
	})
	in.SetOwner(srv, nil, stampOf)

	const callers = 8
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
	var n int
	for n < callers {
		srv.Do(func() { n = len(held) })
		time.Sleep(time.Millisecond)
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
	if _, _, timedOut := NewMailboxOn[int](ex).RecvTimeout(5 * time.Millisecond); !timedOut {
		t.Error("expected a timeout")
	}
	if steps != before {
		t.Error("a stopped actor was stepped")
	}
}

// Do reads actor-private state race-free while other goroutines drive
// the actor's steps (meaningful under -race).
func TestExecutorDoExcludesSteps(t *testing.T) {
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
				in.Put(stamped{reply: reply})
				reply.Recv()
			}
		}()
	}
	last := 0
	for last < callers*trips {
		a.Do(func() {
			if served < last {
				t.Errorf("served went backwards: %d after %d", served, last)
			}
			last = served
		})
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
// not forever: a caller waiting for something that never comes still
// parks and times out.
func TestExecutorIdleActorIsNotRestepped(t *testing.T) {
	ex := NewNetwork().Executor()
	in := NewMailboxOn[stamped](ex)
	steps := 0
	a := ex.NewActor(func() { steps++ }) // consumes nothing
	in.SetOwner(a, nil, stampOf)
	in.Put(stamped{})
	in.Put(stamped{})
	waitOrFail(t, "timed wait beside a stuck actor", func() {
		if _, ok, timedOut := NewMailboxOn[int](ex).RecvTimeout(5 * time.Millisecond); ok || !timedOut {
			t.Error("expected the real-time cap to fire")
		}
	})
	if steps != 1 {
		t.Errorf("steps = %d, want 1", steps)
	}
	// Do keeps a linked actor linked.
	in.Put(stamped{})
	a.Do(func() {})
	NewMailboxOn[int](ex).RecvTimeout(time.Millisecond)
	if steps != 2 {
		t.Errorf("steps after Do = %d, want 2: Do dropped a ready actor", steps)
	}
}
