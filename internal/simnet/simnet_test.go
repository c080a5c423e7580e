package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d, want 1000", Microsecond)
	}
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
	if got := Time(2500).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v, want 2.5", got)
	}
	if got := Time(2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{12 * Microsecond, "12.00us"},
		{3 * Millisecond, "3.000ms"},
		{15 * Second, "15.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBytesDuration(t *testing.T) {
	// 1000 bytes at 1 GB/s = 1000 ns.
	if got := BytesDuration(1000, 1e9); got != 1000 {
		t.Fatalf("BytesDuration = %v, want 1000", got)
	}
	if got := BytesDuration(0, 1e9); got != 0 {
		t.Fatalf("zero bytes should cost 0, got %v", got)
	}
	if got := BytesDuration(100, 0); got != 0 {
		t.Fatalf("zero rate should cost 0, got %v", got)
	}
	if got := BytesDuration(-5, 1e9); got != 0 {
		t.Fatalf("negative bytes should cost 0, got %v", got)
	}
}

func TestVClockMonotone(t *testing.T) {
	c := NewVClock(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(50)
	if c.Now() != 150 {
		t.Fatalf("after Advance, Now = %v", c.Now())
	}
	c.Advance(-10) // ignored
	if c.Now() != 150 {
		t.Fatalf("negative Advance moved clock: %v", c.Now())
	}
	c.AdvanceTo(120) // earlier: ignored
	if c.Now() != 150 {
		t.Fatalf("AdvanceTo(earlier) moved clock back: %v", c.Now())
	}
	c.AdvanceTo(300)
	if c.Now() != 300 {
		t.Fatalf("AdvanceTo(later) = %v, want 300", c.Now())
	}
}

func TestVClockMonotoneProperty(t *testing.T) {
	// Property: any sequence of Advance/AdvanceTo never decreases Now.
	f := func(steps []int64) bool {
		c := NewVClock(0)
		prev := c.Now()
		for i, s := range steps {
			if i%2 == 0 {
				c.Advance(Duration(s % 1e6))
			} else {
				c.AdvanceTo(Time(s % 1e6))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerialization(t *testing.T) {
	r := NewResource("link")
	// First job: starts at its offered time.
	if start := r.Acquire(100, 50); start != 100 {
		t.Fatalf("first Acquire start = %v, want 100", start)
	}
	// Overlapping job queues behind the first.
	if start := r.Acquire(120, 30); start != 150 {
		t.Fatalf("second Acquire start = %v, want 150", start)
	}
	// A job after the horizon starts on time.
	if start := r.Acquire(500, 10); start != 500 {
		t.Fatalf("third Acquire start = %v, want 500", start)
	}
	busy, uses := r.Stats()
	if busy != 90 || uses != 3 {
		t.Fatalf("Stats = (%v, %v), want (90, 3)", busy, uses)
	}
}

func TestResourceConcurrentNoOverlap(t *testing.T) {
	// Property: acquisitions never overlap in virtual time, whatever the
	// order callers book in. A Resource belongs to its deployment's one
	// owner, so the callers are virtual: eight clocks of their own,
	// booked in seeded interleavings from one goroutine. Each caller's
	// offers run ahead of or behind the others', so the interleavings
	// cross the frontier and the backfilled gaps alike.
	const callers, perCaller = 8, 25
	type span struct{ s, e Time }
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewResource("x")
		rng := NewRand(seed)
		var clocks [callers]Time
		var left [callers]int
		for c := range left {
			left[c] = perCaller
		}
		spans := make([]span, 0, callers*perCaller)
		for len(spans) < cap(spans) {
			c := rng.Intn(callers)
			for left[c] == 0 {
				c = (c + 1) % callers
			}
			left[c]--
			dur := Duration(1 + rng.Intn(20))
			start := r.Acquire(clocks[c], dur)
			if start < clocks[c] {
				t.Fatalf("seed %d: caller %d offered %v, started at %v", seed, c, clocks[c], start)
			}
			spans = append(spans, span{start, start + dur})
			clocks[c] = start + dur + Duration(rng.Intn(40))
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.s < b.e && b.s < a.e {
					t.Fatalf("seed %d: overlap: [%v,%v) and [%v,%v)", seed, a.s, a.e, b.s, b.e)
				}
			}
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if d := r.Duration(100); d < 0 || d >= 100 {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if d := r.Duration(0); d != 0 {
		t.Fatalf("Duration(0) = %v", d)
	}
}

func newTestFabric(t *testing.T) (*Network, *Fabric, *Node, *Node) {
	t.Helper()
	nw := NewNetwork()
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	f := nw.AddFabric(FabricSpec{
		Name:            "ib",
		LinkBytesPerSec: 1e9, // 1 GB/s: 1 byte = 1 ns
		Propagation:     100,
		SwitchDelay:     50,
	})
	f.Attach(a)
	f.Attach(b)
	return nw, f, a, b
}

func TestFabricDeliverLatency(t *testing.T) {
	_, f, a, b := newTestFabric(t)
	// 1000 bytes: uplink 1000 + prop/2 50 + switch 50 + downlink 1000 + prop/2 50.
	arrive, err := f.Deliver(a, b, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != 2150 {
		t.Fatalf("arrive = %v, want 2150", arrive)
	}
}

func TestFabricLoopback(t *testing.T) {
	_, f, a, _ := newTestFabric(t)
	arrive, err := f.Deliver(a, a, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != 1010 {
		t.Fatalf("loopback arrive = %v, want 1010", arrive)
	}
}

func TestFabricContention(t *testing.T) {
	// Two back-to-back sends from the same node serialize on the uplink.
	_, f, a, b := newTestFabric(t)
	first, err := f.Deliver(a, b, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Deliver(a, b, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Fatalf("second send did not queue: first=%v second=%v", first, second)
	}
	if second-first < 1000 {
		t.Fatalf("queueing delay %v, want >= one serialization (1000)", second-first)
	}
}

func TestFabricDownlinkContention(t *testing.T) {
	// Many senders to one receiver serialize on the receiver's downlink.
	nw := NewNetwork()
	server := nw.AddNode("server")
	f := nw.AddFabric(FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	f.Attach(server)
	var last Time
	for i := 0; i < 8; i++ {
		c := nw.AddNode("client")
		f.Attach(c)
		arrive, err := f.Deliver(c, server, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if arrive < last {
			t.Fatalf("downlink did not serialize: %v then %v", last, arrive)
		}
		last = arrive
	}
	// Eight 1000-byte frames on a 1 byte/ns downlink need >= 8000 ns.
	if last < 8000 {
		t.Fatalf("final arrival %v, want >= 8000 (8 serialized frames)", last)
	}
}

func TestFabricFailures(t *testing.T) {
	_, f, a, b := newTestFabric(t)
	b.Fail()
	if !b.failed {
		t.Fatal("Fail did not mark the node")
	}
	if _, err := f.Deliver(a, b, 0, 10); err == nil {
		t.Fatal("Deliver to failed node should error")
	}
	if _, err := f.Deliver(b, a, 0, 10); err == nil {
		t.Fatal("Deliver from failed node should error")
	}
	b.failed = false
	if _, err := f.Deliver(a, b, 0, 10); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestFabricUnattached(t *testing.T) {
	nw, f, a, _ := newTestFabric(t)
	c := nw.AddNode("c") // never attached
	if _, err := f.Deliver(a, c, 0, 10); err == nil {
		t.Fatal("Deliver to unattached node should error")
	}
	var ue *errUnreachable
	_, err := f.Deliver(a, c, 0, 10)
	if !asErr(err, &ue) {
		t.Fatalf("error type = %T, want *ErrUnreachable", err)
	}
}

// asErr is a tiny errors.As for the one type we need (keeps the test
// independent of wrapping conventions).
func asErr(err error, target **errUnreachable) bool {
	if e, ok := err.(*errUnreachable); ok {
		*target = e
		return true
	}
	return false
}

func TestNetworkTopology(t *testing.T) {
	nw, f, a, b := newTestFabric(t)
	if nw.fabrics["ib"] != f {
		t.Fatal("fabric not registered under its name")
	}
	if nodes := nw.nodes; len(nodes) != 2 || nodes[0] != a || nodes[1] != b {
		t.Fatalf("nodes = %v", nodes)
	}
	if a.id != 0 || b.id != 1 {
		t.Fatalf("IDs = %d, %d", a.id, b.id)
	}
	if f.up[a.id] == nil || f.down[b.id] == nil {
		t.Fatal("a should be attached")
	}
	util := f.Utilization()
	if len(util) != 4 {
		t.Fatalf("Utilization entries = %d, want 4", len(util))
	}
	// An id past an unattached one: the gap is skipped, not reported.
	loose, d := nw.AddNode("loose"), nw.AddNode("d")
	f.Attach(d)
	if up, down := f.links(loose); up != nil || down != nil {
		t.Fatal("unattached node has links")
	}
	if _, err := f.Deliver(a, loose, 0, 1); err == nil {
		t.Fatal("delivery to an unattached node succeeded")
	}
	if util := f.Utilization(); len(util) != 6 {
		t.Fatalf("Utilization entries with an unattached id = %d, want 6", len(util))
	}
}

func TestDuplicateFabricPanics(t *testing.T) {
	nw := NewNetwork()
	nw.AddFabric(FabricSpec{Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate fabric should panic")
		}
	}()
	nw.AddFabric(FabricSpec{Name: "x"})
}

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox[int]()
	for i := 0; i < 10; i++ {
		m.Put(i)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := m.Recv()
		if !ok || v != i {
			t.Fatalf("Recv = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

// TestMailboxTryRecvBy: a head stamped after t stays queued, and every
// call reports whether the queue is empty as it returns.
func TestMailboxTryRecvBy(t *testing.T) {
	m := NewMailbox[Time]()
	stamp := func(v *Time) Time { return *v }
	var v Time
	if ok, empty := m.TryRecvBy(100, stamp, &v); ok || !empty {
		t.Fatalf("empty mailbox: ok %v, empty %v", ok, empty)
	}
	m.Put(50)
	m.Put(200)
	if ok, empty := m.TryRecvBy(100, stamp, &v); !ok || v != 50 || empty {
		t.Fatalf("TryRecvBy(100) = (%v, %v, empty %v), want (50, true, false)", v, ok, empty)
	}
	if ok, empty := m.TryRecvBy(100, stamp, &v); ok || empty || v != 50 {
		t.Fatalf("future head: ok %v, empty %v, dst %v; want it left queued and dst untouched", ok, empty, v)
	}
	if ok, empty := m.TryRecvBy(200, stamp, &v); !ok || v != 200 || !empty {
		t.Fatalf("TryRecvBy(200) = (%v, %v, empty %v), want (200, true, true)", v, ok, empty)
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	m := NewMailbox[string]()
	done := make(chan string)
	go func() {
		v, _ := m.Recv()
		done <- v
	}()
	time.Sleep(5 * time.Millisecond)
	m.Put("hello")
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never woke")
	}
}

func TestMailboxClose(t *testing.T) {
	m := NewMailbox[int]()
	m.Put(1)
	m.Close()
	m.Put(2) // dropped
	if v, ok := m.Recv(); !ok || v != 1 {
		t.Fatalf("queued message lost: (%d, %v)", v, ok)
	}
	if _, ok := m.Recv(); ok {
		t.Fatal("Recv on closed+empty should report !ok")
	}
	if !m.Closed() {
		t.Fatal("Closed() should be true")
	}
	m.Close() // idempotent
}

func TestMailboxCloseWakesReceiver(t *testing.T) {
	m := NewMailbox[int]()
	done := make(chan bool)
	go func() {
		_, ok := m.Recv()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	m.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv on closed mailbox returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake receiver")
	}
}

func TestMailboxRecvTimeout(t *testing.T) {
	m := NewMailbox[int]()
	if _, ok, timedOut := m.RecvTimeout(10 * time.Millisecond); ok || !timedOut {
		t.Fatal("expected timeout")
	}
	m.Put(5)
	if v, ok, timedOut := m.RecvTimeout(time.Second); !ok || timedOut || v != 5 {
		t.Fatalf("got (%d, %v, %v)", v, ok, timedOut)
	}
	m.Close()
	if _, ok, timedOut := m.RecvTimeout(time.Second); ok || timedOut {
		t.Fatal("closed mailbox should return !ok, !timedOut")
	}
}
