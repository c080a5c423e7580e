package ucr

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
	"repro/internal/verbs"
)

func hcaConfig() verbs.Config {
	return verbs.Config{
		PostOverhead: 50,
		SendProc:     200,
		RecvProc:     200,
		RDMAProc:     300,
		PollOverhead: 50,
		RegBase:      2000,
		RegPerByte:   0.2,
	}
}

// world is a two-node UCR test environment with an echo server.
type world struct {
	srvCtx *Context
	nw     *simnet.Network
	fab    *simnet.Fabric
	cm     *verbs.CM
	cliRT  *Runtime
	srvRT  *Runtime
	cliCtx *Context
	cliClk *simnet.VClock
	srvClk *simnet.VClock

	srvNode *simnet.Node
	cliNode *simnet.Node

	stop func()
}

const (
	midRequest = 1
	midReply   = 2
)

// newWorld builds client and server runtimes. The server actor accepts
// endpoints and progresses its context; its handlers for
// midRequest echo the data back via midReply, reading the reply counter
// id from the first 8 bytes of the request header.
func newWorld(t testing.TB, cfg Config) *world {
	t.Helper()
	w := &world{}
	w.nw = simnet.NewNetwork()
	w.cliNode = w.nw.AddNode("client")
	w.srvNode = w.nw.AddNode("server")
	w.fab = w.nw.AddFabric(simnet.FabricSpec{
		Name:            "ib",
		LinkBytesPerSec: 2e9,
		Propagation:     300,
		SwitchDelay:     100,
		MTU:             2048,
	})
	w.cm = verbs.NewCM(w.fab)
	cliHCA := verbs.NewHCA(w.cliNode, w.fab, hcaConfig())
	srvHCA := verbs.NewHCA(w.srvNode, w.fab, hcaConfig())
	w.cliRT = New(cliHCA, w.cm, cfg)
	w.srvRT = New(srvHCA, w.cm, cfg)
	w.cliCtx = w.cliRT.NewContext()
	w.cliClk = simnet.NewVClock(0)
	w.srvClk = simnet.NewVClock(0)

	// Server: echo handler. Request header = [replyCtr(8)] [tag...].
	srvCtx := w.srvRT.NewContext()
	w.srvCtx = srvCtx
	pool := make(map[*Endpoint][]byte)
	w.srvRT.RegisterHandler(midRequest, Handler{
		Header: func(clk *simnet.VClock, ep *Endpoint, hdr []byte, dataLen int, _ CounterID) []byte {
			buf := pool[ep]
			if len(buf) < dataLen {
				buf = make([]byte, dataLen)
				pool[ep] = buf
			}
			return buf
		},
		Completion: func(clk *simnet.VClock, ep *Endpoint, hdr, data []byte, _ CounterID) {
			replyCtr := CounterID(binary.LittleEndian.Uint64(hdr))
			if err := ep.Send(clk, midReply, hdr[8:], data, nil, replyCtr, nil); err != nil {
				t.Errorf("server reply failed: %v", err)
			}
		},
	})

	w.stop = serveLoop(t, w.srvRT, srvCtx, w.srvClk, "echo")
	t.Cleanup(w.stop)
	return w
}

// srvBufBytes reports the server context's receive-buffer footprint.
func (w *world) srvBufBytes() int64 { return w.srvCtx.RecvBufferBytes() }

// serveLoop registers a single-owner server actor for ctx on the
// fabric's executor: it accepts every endpoint request into ctx and
// drains ctx's completions, stepped by whoever waits for its replies —
// the dispatcher/worker shape the Memcached server uses, in one actor.
// It returns a stop function.
func serveLoop(t testing.TB, rt *Runtime, ctx *Context, clk *simnet.VClock, service string) (stop func()) {
	t.Helper()
	lis, err := rt.Listen(service)
	if err != nil {
		t.Fatal(err)
	}
	dispClk := simnet.NewVClock(0)
	srv := rt.HCA().Fabric().Executor().NewActor(func() {
		for {
			req, ok := lis.TryNext(dispClk)
			if !ok {
				break
			}
			if _, err := ctx.Accept(req, clk); err != nil {
				req.Reject(err)
			}
		}
		for ctx.TryProgress(clk) {
		}
	})
	lis.SetOwner(srv)
	ctx.SetOwner(srv)
	return func() {
		lis.Close()
		srv.Stop()
		ctx.Destroy()
	}
}

// dial connects a reliable client endpoint with a fresh reply buffer.
func (w *world) dial(t testing.TB, rel Reliability) *Endpoint {
	t.Helper()
	ep, err := w.cliRT.Dial(w.cliCtx, w.srvNode, "echo", rel, w.cliClk, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// installClientReply registers the midReply handler on the client,
// capturing replies into the returned buffer holder.
type replyCapture struct {
	hdr  []byte
	data []byte
	buf  []byte
	runs int
}

func (w *world) installClientReply() *replyCapture {
	rc := &replyCapture{buf: make([]byte, 1<<20)}
	w.cliRT.RegisterHandler(midReply, Handler{
		Header: func(clk *simnet.VClock, ep *Endpoint, hdr []byte, dataLen int, _ CounterID) []byte {
			return rc.buf
		},
		Completion: func(clk *simnet.VClock, ep *Endpoint, hdr, data []byte, _ CounterID) {
			rc.hdr = append([]byte(nil), hdr...)
			rc.data = append([]byte(nil), data...)
			rc.runs++
		},
	})
	return rc
}

// request sends one echo request and waits for the reply.
func (w *world) request(t *testing.T, ep *Endpoint, tag string, data []byte, timeout simnet.Duration) error {
	t.Helper()
	replyCtr := w.cliRT.NewCounter()
	defer w.cliRT.FreeCounter(replyCtr)
	hdr := make([]byte, 8+len(tag))
	binary.LittleEndian.PutUint64(hdr, uint64(replyCtr.ID()))
	copy(hdr[8:], tag)
	if err := ep.Send(w.cliClk, midRequest, hdr, data, nil, 0, nil); err != nil {
		return err
	}
	return w.cliCtx.WaitCounter(w.cliClk, replyCtr, 1, timeout)
}

func TestEagerRoundtrip(t *testing.T) {
	w := newWorld(t, Config{})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	payload := []byte("small eager payload")
	if err := w.request(t, ep, "tag1", payload, 0); err != nil {
		t.Fatal(err)
	}
	if string(rc.hdr) != "tag1" || !bytes.Equal(rc.data, payload) {
		t.Fatalf("reply = hdr %q data %q", rc.hdr, rc.data)
	}
	// Entire exchange stayed on the eager path: no RDMA reads anywhere.
	if _, _, _, _, reads := w.cliCtx.Stats(); reads != 0 {
		t.Fatalf("client did %d RDMA reads on eager path", reads)
	}
	if w.cliClk.Now() == 0 {
		t.Fatal("client clock did not advance")
	}
}

func TestRendezvousRoundtrip(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 1024})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := w.request(t, ep, "big", payload, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.data, payload) {
		t.Fatal("large payload corrupted in flight")
	}
	// The reply (64 KB > threshold) came back via rendezvous: the
	// client as target issued an RDMA read.
	if _, _, _, _, reads := w.cliCtx.Stats(); reads == 0 {
		t.Fatal("client never used RDMA read for large reply")
	}
}

func TestOriginCounterEagerLocalCompletion(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	origin := w.cliRT.NewCounter()
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), []byte("x"), origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, origin, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Eager origin counters come from local completion, not an ack.
	if _, _, acksIn, _, _ := w.cliCtx.Stats(); acksIn != 0 {
		t.Fatalf("eager origin counter used %d acks, want 0", acksIn)
	}
}

func TestOriginCounterRendezvousAck(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 512})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	origin := w.cliRT.NewCounter()
	hdr := make([]byte, 16) // replyCtr 0: server still echoes, reply ctr ignored
	big := make([]byte, 8192)
	if err := ep.Send(w.cliClk, midRequest, hdr, big, origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, origin, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, acksIn, _, _ := w.cliCtx.Stats(); acksIn == 0 {
		t.Fatal("rendezvous origin counter should arrive via internal ack")
	}
	// The origin-side registration was released.
	if n := w.cliCtx.inFlight(wrRndz); n != 0 {
		t.Fatalf("%d rendezvous origin states leaked", n)
	}
}

func TestCompletionCounter(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	compl := w.cliRT.NewCounter()
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), []byte("y"), nil, 0, compl); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, compl, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, acksIn, _, _ := w.cliCtx.Stats(); acksIn == 0 {
		t.Fatal("completion counter requires the optional internal message")
	}
}

func TestNullCountersSuppressAcks(t *testing.T) {
	// §IV-C: NULL counters mean no internal messages for eager sends.
	w := newWorld(t, Config{})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	for i := 0; i < 5; i++ {
		if err := w.request(t, ep, "t", []byte("data"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if rc.runs != 5 {
		t.Fatalf("runs = %d", rc.runs)
	}
	if _, _, acksIn, acksOut, _ := w.cliCtx.Stats(); acksIn != 0 || acksOut != 0 {
		t.Fatalf("eager exchange with NULL counters produced acks: in=%d out=%d", acksIn, acksOut)
	}
}

func TestTargetCounterSemantics(t *testing.T) {
	// The reply's target counter (client side) bumps exactly once per
	// reply and the counter is monotone.
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	ctr := w.cliRT.NewCounter()
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint64(hdr, uint64(ctr.ID()))
	for i := 1; i <= 4; i++ {
		if err := ep.Send(w.cliClk, midRequest, hdr, []byte("z"), nil, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.cliCtx.WaitCounter(w.cliClk, ctr, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
		if ctr.Value() != uint64(i) {
			t.Fatalf("counter = %d, want %d", ctr.Value(), i)
		}
	}
}

func TestWaitTimeoutOnDeadServer(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	// Warm one exchange, then kill the server node.
	if err := w.request(t, ep, "warm", []byte("w"), 0); err != nil {
		t.Fatal(err)
	}
	w.srvNode.Fail()
	err := w.request(t, ep, "dead", []byte("d"), 50*simnet.Microsecond)
	if err != ErrTimeout && err != errEndpointDown {
		t.Fatalf("err = %v, want timeout or endpoint-down", err)
	}
}

func TestFaultIsolation(t *testing.T) {
	// One failing endpoint must not affect another (§IV-A). Two servers;
	// one dies; traffic to the other keeps flowing.
	w := newWorld(t, Config{})
	rc := w.installClientReply()

	// Second server on its own node.
	srv2Node := w.nw.AddNode("server2")
	srv2HCA := verbs.NewHCA(srv2Node, w.fab, hcaConfig())
	srv2RT := New(srv2HCA, w.cm, Config{})
	srv2Ctx := srv2RT.NewContext()
	srv2Clk := simnet.NewVClock(0)
	srv2RT.RegisterHandler(midRequest, Handler{
		Header: func(clk *simnet.VClock, ep *Endpoint, hdr []byte, dataLen int, _ CounterID) []byte {
			return make([]byte, dataLen)
		},
		Completion: func(clk *simnet.VClock, ep *Endpoint, hdr, data []byte, _ CounterID) {
			replyCtr := CounterID(binary.LittleEndian.Uint64(hdr))
			_ = ep.Send(clk, midReply, hdr[8:], data, nil, replyCtr, nil)
		},
	})
	stop2 := serveLoop(t, srv2RT, srv2Ctx, srv2Clk, "echo2")
	defer stop2()

	ep1 := w.dial(t, Reliable)
	ep2, err := w.cliRT.Dial(w.cliCtx, srv2Node, "echo2", Reliable, w.cliClk, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if err := w.request(t, ep1, "a", []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	w.srvNode.Fail() // first server dies
	if err := w.request(t, ep1, "b", []byte("2"), 50*simnet.Microsecond); err == nil {
		t.Fatal("request to dead server should fail")
	}
	// The second endpoint still works.
	before := rc.runs
	if err := w.request(t, ep2, "c", []byte("3"), 0); err != nil {
		t.Fatalf("healthy endpoint affected by peer failure: %v", err)
	}
	if rc.runs != before+1 {
		t.Fatal("no reply via healthy endpoint")
	}
}

func TestFlowControlCredits(t *testing.T) {
	// With a tiny window, a burst of one-way sends forces the sender to
	// wait for piggybacked credit returns — and still completes.
	w := newWorld(t, Config{Credits: 2})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	for i := 0; i < 20; i++ {
		if err := w.request(t, ep, "fc", []byte("x"), 0); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if ep.sendCredits < 0 {
		t.Fatalf("credits went negative: %d", ep.sendCredits)
	}
}

func TestUnreliableEndpoint(t *testing.T) {
	w := newWorld(t, Config{})
	rc := w.installClientReply()
	ep := w.dial(t, Unreliable)
	if ep.Reliability() != Unreliable {
		t.Fatal("wrong reliability")
	}
	if err := w.request(t, ep, "ud", []byte("datagram"), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.data, []byte("datagram")) {
		t.Fatalf("data = %q", rc.data)
	}
	// Over-MTU payloads cannot use UD (no rendezvous on datagrams).
	big := make([]byte, 64*1024)
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), big, nil, 0, nil); err != errTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestHugeHeaderRejected(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 256})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	hdr := make([]byte, 1024) // exceeds eager capacity, header can't rendezvous
	data := make([]byte, 64*1024)
	if err := ep.Send(w.cliClk, midRequest, hdr, data, nil, 0, nil); err != errTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestUnhandledMessageDropped(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	// msgID 99 has no handler on the server: silently dropped.
	if err := ep.Send(w.cliClk, 99, []byte("hdr"), []byte("data"), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	// The endpoint still works for handled messages afterwards.
	if err := w.request(t, ep, "after", []byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownService(t *testing.T) {
	w := newWorld(t, Config{})
	if _, err := w.cliRT.Dial(w.cliCtx, w.srvNode, "nope", Reliable, w.cliClk, time.Second); err != verbs.ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestCounterRegistry(t *testing.T) {
	w := newWorld(t, Config{})
	rt := w.cliRT
	c := rt.NewCounter()
	id := c.ID()
	if id == 0 {
		t.Fatal("counter id should be nonzero")
	}
	if got := rt.Counter(id); got != c {
		t.Fatal("lookup failed")
	}
	if got := rt.Counter(0); got != nil {
		t.Fatal("id 0 must resolve to nil")
	}
	rt.FreeCounter(c)
	if got := rt.Counter(id); got != nil {
		t.Fatal("freed counter still resolvable")
	}
	rt.FreeCounter(c) // double free: the index must not be freed twice

	// The freed index is reissued under its next generation: the same
	// struct, a new id. The old id resolves to nil and bumps nothing.
	c2, c3 := rt.NewCounter(), rt.NewCounter()
	if c2 != c || c2.ID() == id || uint32(c2.ID()) != uint32(id) {
		t.Fatalf("reissue: id %#x after %#x, want the same index under a new generation", c2.ID(), id)
	}
	if c3 == c2 {
		t.Fatal("a double free handed one index out twice")
	}
	if got := rt.Counter(id); got != nil {
		t.Fatal("a retired id resolves to its reissued counter")
	}
	rt.bump(id)
	if c2.Value() != 0 {
		t.Fatal("a retired id bumped the reissued counter")
	}
	rt.bump(c2.ID())
	if c2.Value() != 1 {
		t.Fatalf("live id bump: value %d, want 1", c2.Value())
	}
	for _, never := range []CounterID{c2.ID() + 1<<32, c3.ID() + 1, ^CounterID(0)} {
		if got := rt.Counter(never); got != nil {
			t.Errorf("id %#x, never issued, resolved", never)
		}
	}
	var nilCtr *Counter
	if nilCtr.ID() != 0 {
		t.Fatal("nil counter id should be 0")
	}
	rt.FreeCounter(nil) // must not panic
}

func TestPacketRoundtripProperty(t *testing.T) {
	f := func(typ8 uint8, msgID uint8, hdr, data []byte, oc, tc, cc uint64, addr uint64, rkey uint32, seq uint64) bool {
		typ := uint8(1 + typ8%3)
		p := packet{
			typ: typ, msgID: msgID, hdr: hdr,
			dataLen:   len(data),
			originCtr: CounterID(oc), targetCtr: CounterID(tc), complCtr: CounterID(cc),
			rndzAddr: addr, rkey: rkey, seq: seq,
		}
		if typ == ptEager {
			p.data = data
		}
		buf := onWire(&p)
		var got packet
		if err := decodePacket(&got, buf, len(buf)); err != nil {
			return false
		}
		if got.typ != p.typ || got.msgID != p.msgID || !bytes.Equal(got.hdr, hdr) {
			return false
		}
		if got.originCtr != p.originCtr || got.targetCtr != p.targetCtr || got.complCtr != p.complCtr {
			return false
		}
		if got.rndzAddr != addr || got.rkey != rkey || got.seq != seq || got.dataLen != len(data) {
			return false
		}
		if typ == ptEager && !bytes.Equal(got.data, data) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketDecodeErrors(t *testing.T) {
	if err := decodePacket(new(packet), make([]byte, 10), 10); err == nil {
		t.Fatal("short packet should error")
	}
	// Header length overrunning the packet.
	p := packet{typ: ptEager, hdr: make([]byte, 100)}
	buf := onWire(&p)
	if err := decodePacket(new(packet), buf, len(buf)-50); err == nil {
		t.Fatal("truncated header should error")
	}
	// Data overrun.
	p2 := packet{typ: ptEager, data: make([]byte, 100), dataLen: 100}
	buf2 := onWire(&p2)
	if err := decodePacket(new(packet), buf2, len(buf2)-10); err == nil {
		t.Fatal("truncated data should error")
	}
}

// onWire is what a packet's send lands at the receiver: the staged
// header and hdr, then the data gathered behind them.
func onWire(p *packet) []byte {
	buf := make([]byte, packetHdrSize+len(p.hdr))
	p.encode(buf)
	return append(buf, p.data...)
}

func TestEagerThresholdBoundary(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 1000})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, 0)
	// Exactly at capacity: eager.
	atCap := make([]byte, ep.MaxEager()-len(hdr))
	if err := ep.Send(w.cliClk, midRequest, hdr, atCap, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	// One past capacity: rendezvous (server pulls it — verify via server
	// side being unobservable here, just assert the send works and the
	// registration path got used).
	over := make([]byte, ep.MaxEager()-len(hdr)+1)
	origin := w.cliRT.NewCounter()
	if err := ep.Send(w.cliClk, midRequest, hdr, over, origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, origin, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, acksIn, _, _ := w.cliCtx.Stats(); acksIn == 0 {
		t.Fatal("over-threshold send did not take the rendezvous path")
	}
}

// TestShareHandlers: runtimes of one service share one handler table; a
// runtime that registers a handler of its own first copies the table,
// so the others keep theirs.
func TestShareHandlers(t *testing.T) {
	nw := simnet.NewNetwork()
	fab := nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 1e9})
	cm := verbs.NewCM(fab)
	rt := func(name string) *Runtime { return New(verbs.NewHCA(nw.AddNode(name), fab, hcaConfig()), cm, Config{}) }
	shared := new(Handlers)
	shared.Register(midReply, Handler{})
	a, b := rt("a"), rt("b")
	a.ShareHandlers(shared)
	b.ShareHandlers(shared)
	if a.handler(midReply) != shared[midReply] || b.handler(midReply) != shared[midReply] {
		t.Fatal("a shared table's handler is not the runtimes' handler")
	}
	b.RegisterHandler(midRequest, Handler{})
	if shared[midRequest] != nil || a.handler(midRequest) != nil {
		t.Fatal("registering on one runtime wrote the shared table")
	}
	if b.handler(midRequest) == nil || b.handler(midReply) != shared[midReply] {
		t.Fatal("a runtime's own table lost a shared handler or the registered one")
	}
	if rt("c").handler(midReply) != nil {
		t.Fatal("a fresh runtime has a handler")
	}
}

// TestEagerSendStagesHeaderOnly: an eager send stages the wire header
// and hdr in the pool buffer its posted slot holds until the send
// completes; the payload travels as the second gather segment, read in
// place, and still arrives whole.
func TestEagerSendStagesHeaderOnly(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 8192})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	replyCtr := w.cliRT.NewCounter()
	hdr := make([]byte, 8+len("tag"))
	binary.LittleEndian.PutUint64(hdr, uint64(replyCtr.ID()))
	copy(hdr[8:], "tag")
	data := bytes.Repeat([]byte("v"), 4096)
	if err := ep.Send(w.cliClk, midRequest, hdr, data, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	var staged []int
	for _, e := range w.cliCtx.posted.ents {
		if e.live && e.v.kind == wrSend {
			staged = append(staged, len(e.v.buf))
		}
	}
	if len(staged) != 1 || staged[0] != packetHdrSize+len(hdr) {
		t.Fatalf("posted send buffers %v, want one of %d bytes (header and hdr only)", staged, packetHdrSize+len(hdr))
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, replyCtr, 1, 0); err != nil {
		t.Fatal(err)
	}
	if string(rc.hdr) != "tag" || !bytes.Equal(rc.data, data) {
		t.Fatalf("echo = hdr %q, %d data bytes; want the 4096 sent", rc.hdr, len(rc.data))
	}
}
