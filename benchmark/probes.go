package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// Layer probes: each drives one package's exported API in isolation,
// from outside, with the message sizes of the workload's GET, and
// reports host ns, allocations and charged virtual ns per call. A
// layer's self cost is its probe minus the probe of the layer beneath.

// ucrWireHdr is the UCR packet header that precedes every AM header on
// the wire (internal/ucr/packet.go); the verbs ping-pong uses it to
// carry the same bytes a UCR GET does.
const ucrWireHdr = 56

// probeBatches is how many timed batches a wall probe takes; the
// reported cost is the median batch.
const probeBatches = 9

const dialCap = 5 * time.Second

// shape is the message geometry probes copy from the workload.
type shape struct {
	key   string
	value []byte
}

func (s shape) amReqHdr() int   { return 8 + 2 + len(s.key) } // memcached.KeyReq
func (s shape) amReplyHdr() int { return 1 + 4 + 8 }          // memcached.GetReply
func (s shape) textReq() []byte { return []byte("gets " + s.key + "\r\n") }
func (s shape) textReply() int {
	return len(fmt.Sprintf("VALUE %s 0 %d 1\r\n", s.key, len(s.value))) + len(s.value) + len("\r\nEND\r\n")
}

// shapeOf picks a key of the median length (25 bytes) so probes see a
// typical request.
func shapeOf(in *inputs) shape {
	k := 0
	for i, key := range in.keys {
		if len(key) == 25 {
			k = i
			break
		}
	}
	return shape{key: in.keys[k], value: in.vals[k]}
}

// batchNs times one batch of n calls: host ns per call.
func batchNs(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// wallPerCall times batches of n calls and returns the median batch's
// host ns per call.
func wallPerCall(n int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		per[b] = batchNs(n, fn)
	}
	return median(per)
}

// wallPerCallPair times two operations whose difference is reported, in
// alternating batches, so heap state and host drift bear on both alike.
func wallPerCallPair(n int, fa, fb func()) (a, b float64) {
	pa, pb := make([]float64, probeBatches), make([]float64, probeBatches)
	for i := range pa {
		pa[i], pb[i] = batchNs(n, fa), batchNs(n, fb)
	}
	return median(pa), median(pb)
}

// allocsPerCall counts mallocs over n calls (everything else in the
// process is quiescent while probes run).
func allocsPerCall(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// modelPerCall is the virtual time n calls charge clk, per call.
func modelPerCall(clk *simnet.VClock, n int, fn func()) float64 {
	t0 := clk.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(clk.Now()-t0) / float64(n)
}

type values map[string]float64

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark probe: %v", err))
	}
}

// twoNodes is where every isolated probe runs: cluster B's IB fabric
// with a client and a server node attached.
func twoNodes() (p *cluster.Profile, fab *simnet.Fabric, cli, srv *simnet.Node) {
	p = cluster.ClusterB()
	nw := simnet.NewNetwork()
	fab = nw.AddFabric(p.IB)
	cli, srv = nw.AddNode("client"), nw.AddNode("server")
	fab.Attach(cli)
	fab.Attach(srv)
	return p, fab, cli, srv
}

// probeSimnet: wire model, resource booking, mailbox hand-off.
func probeSimnet(sh shape, out values) {
	p, fab, a, b := twoNodes()
	wire := ucrWireHdr + sh.amReqHdr() + p.HCA.HeaderBytes
	var at, arrive simnet.Time
	deliver := func() {
		at += 10 * simnet.Microsecond
		arrive, _ = fab.Deliver(a, b, at, wire)
	}
	out["simnet.deliver_wall_ns"] = wallPerCall(4000, deliver)
	deliver()
	out["simnet.deliver_model_ns"] = float64(arrive - at)

	// Monotone caller with idle time between bookings, as a depth-1
	// client's link sees: every call remembers one idle gap.
	res := simnet.NewResource("probe")
	var t simnet.Time
	acquire := wallPerCall(4000, func() {
		t += 1000
		res.Acquire(t, 100)
	})
	out["simnet.resource_acquire_wall_ns"] = acquire
	// A second caller ten bookings behind the first backfills the front
	// of a remembered gap; the pair costs one monotone call more.
	res = simnet.NewResource("probe")
	t = 0
	pair := wallPerCall(4000, func() {
		t += 1000
		res.Acquire(t, 100)
		if t > 10_000 {
			res.Acquire(t-10_000+100, 100)
		}
	})
	out["simnet.resource_backfill_wall_ns"] = max(pair-acquire, 0)

	ping, pong := simnet.NewMailbox[int](), simnet.NewMailbox[int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			v, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Put(v)
		}
	}()
	out["simnet.mailbox_handoff_wall_ns"] = wallPerCall(2000, func() {
		ping.Put(1)
		pong.Recv()
	}) / 2
	ping.Close()
	wg.Wait()
}

// verbsPair is two connected RC queue pairs on cluster B's fabric and
// HCA model, both driven from the probe goroutine.
type verbsPair struct {
	cliClk, srvClk   *simnet.VClock
	cliQP, srvQP     *verbs.QP
	cliSend, cliRecv *verbs.CQ
	srvSend, srvRecv *verbs.CQ
	cliMR, srvMR     *verbs.MR
	cliHCA, srvHCA   *verbs.HCA
}

const (
	pairRecvs  = 128
	pairBufLen = 16 << 10
)

func newVerbsPair() *verbsPair {
	p, fab, cn, sn := twoNodes()
	v := &verbsPair{cliClk: simnet.NewVClock(0), srvClk: simnet.NewVClock(0)}
	v.cliHCA, v.srvHCA = verbs.NewHCA(cn, fab, p.HCA), verbs.NewHCA(sn, fab, p.HCA)
	cm := verbs.NewCM(fab)
	v.cliSend, v.cliRecv = v.cliHCA.CreateCQ(), v.cliHCA.CreateCQ()
	v.srvSend, v.srvRecv = v.srvHCA.CreateCQ(), v.srvHCA.CreateCQ()
	v.cliQP = v.cliHCA.NewQP(verbs.RC, v.cliSend, v.cliRecv)
	v.srvQP = v.srvHCA.NewQP(verbs.RC, v.srvSend, v.srvRecv)
	var err error
	v.cliMR, err = v.cliHCA.RegisterMR(v.cliHCA.AllocPD(), make([]byte, pairBufLen), nil)
	must(err)
	v.srvMR, err = v.srvHCA.RegisterMR(v.srvHCA.AllocPD(), make([]byte, pairBufLen), nil)
	must(err)
	must(v.cliQP.Modify(verbs.StateInit))
	must(v.srvQP.Modify(verbs.StateInit))
	for i := 0; i < pairRecvs; i++ {
		must(v.cliQP.PostRecv(verbs.RecvWR{ID: uint64(i), Buf: make([]byte, pairBufLen)}))
		must(v.srvQP.PostRecv(verbs.RecvWR{ID: uint64(i), Buf: make([]byte, pairBufLen)}))
	}
	lis, err := cm.Listen("probe")
	must(err)
	accepted := make(chan error, 1)
	go func() {
		req, ok := lis.Accept(v.srvClk)
		if !ok {
			accepted <- verbs.ErrListenerClosed
			return
		}
		accepted <- req.Accept(v.srvQP, v.srvClk)
	}()
	_, err = cm.Connect(v.cliQP, sn, "probe", v.cliClk, dialCap)
	must(err)
	must(<-accepted)
	lis.Close()
	return v
}

// recycle harvests n client sends and n server receives without
// charging either clock and re-posts the receive buffers.
func (v *verbsPair) recycle(n int, recvBuf []byte) {
	for i := 0; i < n; i++ {
		if _, ok := v.cliSend.TryPoll(); !ok {
			panic("benchmark probe: missing send completion")
		}
		wc, ok := v.srvRecv.TryPoll()
		if !ok || wc.Status != verbs.StatusSuccess {
			panic("benchmark probe: missing receive completion")
		}
		must(v.srvQP.PostRecv(verbs.RecvWR{ID: wc.ID, Buf: recvBuf}))
	}
}

func (v *verbsPair) close() {
	v.cliQP.Destroy()
	v.srvQP.Destroy()
	for _, cq := range []*verbs.CQ{v.cliSend, v.cliRecv, v.srvSend, v.srvRecv} {
		cq.Destroy()
	}
}

// probeVerbs: post, burst post, poll, a SEND/RECV ping-pong carrying
// the bytes of a UCR GET and its reply, and one 4 KB RDMA read.
func probeVerbs(sh shape, out values) {
	v := newVerbsPair()
	defer v.close()
	req := v.cliMR.Bytes()[:ucrWireHdr+sh.amReqHdr()]
	reply := v.srvMR.Bytes()[:ucrWireHdr+sh.amReplyHdr()+len(sh.value)]
	recvBuf := make([]byte, pairBufLen)
	const burst = 64

	send := verbs.SendWR{Op: verbs.OpSend, Local: req, LocalMR: v.cliMR}
	per := make([]float64, probeBatches)
	var model float64
	for b := range per {
		c0 := v.cliClk.Now()
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			must(v.cliQP.PostSend(v.cliClk, send))
		}
		per[b] = float64(time.Since(t0)) / burst
		model = float64(v.cliClk.Now()-c0) / burst
		v.recycle(burst, recvBuf)
	}
	out["verbs.post_send_wall_ns"] = median(per)
	out["verbs.post_send_model_ns"] = model

	wrs := make([]verbs.SendWR, 8)
	for i := range wrs {
		wrs[i] = send
	}
	for b := range per {
		t0 := time.Now()
		for i := 0; i < burst/len(wrs); i++ {
			must(v.cliQP.PostSendN(v.cliClk, wrs))
		}
		per[b] = float64(time.Since(t0)) / burst
		v.recycle(burst, recvBuf)
	}
	out["verbs.post_send_n8_wall_ns"] = median(per)

	for b := range per {
		for i := 0; i < burst; i++ {
			must(v.cliQP.PostSend(v.cliClk, send))
		}
		// Every completion is already in the poller's past, so a poll
		// charges its harvest cost and no waiting.
		v.srvClk.AdvanceTo(v.cliClk.Now() + simnet.Millisecond)
		c0 := v.srvClk.Now()
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			if _, ok := v.srvRecv.TryPollWith(v.srvClk); !ok {
				panic("benchmark probe: missing receive completion")
			}
		}
		per[b] = float64(time.Since(t0)) / burst
		model = float64(v.srvClk.Now()-c0) / burst
		for i := 0; i < burst; i++ {
			v.cliSend.TryPoll()
			must(v.srvQP.PostRecv(verbs.RecvWR{Buf: recvBuf}))
		}
	}
	out["verbs.poll_wall_ns"] = median(per)
	out["verbs.poll_model_ns"] = model

	v.cliClk.AdvanceTo(v.srvClk.Now())
	back := verbs.SendWR{Op: verbs.OpSend, Local: reply, LocalMR: v.srvMR}
	pingpong := func() {
		must(v.cliQP.PostSend(v.cliClk, send))
		wc, ok := v.srvRecv.Wait(v.srvClk)
		if !ok || wc.Status != verbs.StatusSuccess {
			panic("benchmark probe: ping lost")
		}
		must(v.srvQP.PostRecv(verbs.RecvWR{Buf: recvBuf}))
		must(v.srvQP.PostSend(v.srvClk, back))
		wc, ok = v.cliRecv.Wait(v.cliClk)
		if !ok || wc.Status != verbs.StatusSuccess {
			panic("benchmark probe: pong lost")
		}
		must(v.cliQP.PostRecv(verbs.RecvWR{Buf: recvBuf}))
		v.cliSend.TryPoll()
		v.srvSend.TryPoll()
	}
	out["verbs.pingpong_wall_ns"] = wallPerCall(1000, pingpong)
	out["verbs.pingpong_model_ns"] = modelPerCall(v.cliClk, 100, pingpong)
	out["verbs.pingpong_allocs"] = allocsPerCall(1000, pingpong)

	read := verbs.SendWR{
		Op: verbs.OpRDMARead, Local: v.cliMR.Bytes()[:4096], LocalMR: v.cliMR,
		RemoteAddr: v.srvMR.VA(), RKey: v.srvMR.RKey(),
	}
	out["verbs.rdma_read4k_model_ns"] = modelPerCall(v.cliClk, 100, func() {
		must(v.cliQP.PostSend(v.cliClk, read))
		wc, ok := v.cliSend.Wait(v.cliClk)
		if !ok || wc.Status != verbs.StatusSuccess {
			panic("benchmark probe: rdma read failed")
		}
	})
}

// AM ids of the echo probe (outside memcached's 0x10–0x2f range).
const (
	amEchoReq   uint8 = 0x70
	amEchoReply uint8 = 0x71
)

// probeUCR: an active-message round trip against a handler that does
// nothing but answer, with the header and payload sizes of the
// workload's GET and reply. Both contexts are progressed from the probe
// goroutine.
func probeUCR(sh shape, out values) {
	p, fab, cn, sn := twoNodes()
	cm := verbs.NewCM(fab)
	cliRT := ucr.New(verbs.NewHCA(cn, fab, p.HCA), cm, p.UCR)
	srvRT := ucr.New(verbs.NewHCA(sn, fab, p.HCA), cm, p.UCR)
	cliCtx, srvCtx := cliRT.NewContext(), srvRT.NewContext()
	defer cliCtx.Destroy()
	defer srvCtx.Destroy()
	cliClk, srvClk := simnet.NewVClock(0), simnet.NewVClock(0)

	replyHdr := make([]byte, sh.amReplyHdr())
	srvRT.RegisterHandler(amEchoReq, ucr.Handler{
		Header: func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return nil },
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, _ []byte, _ ucr.CounterID) {
			view, err := memcached.DecodeKeyReqView(hdr)
			must(err)
			must(ep.Send(clk, amEchoReply, replyHdr, sh.value, nil, view.ReplyCtr, nil))
		},
	})
	landing := make([]byte, len(sh.value))
	cliRT.RegisterHandler(amEchoReply, ucr.Handler{
		Header: func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return landing },
	})

	lis, err := srvRT.Listen("echo")
	must(err)
	accepted := make(chan bool, 1)
	go func() {
		_, ok := lis.Accept(srvCtx, srvClk)
		accepted <- ok
	}()
	ep, err := cliRT.Dial(cliCtx, sn, "echo", ucr.Reliable, cliClk, dialCap)
	must(err)
	if !<-accepted {
		panic("benchmark probe: ucr accept failed")
	}
	lis.Close()

	hdr := make([]byte, 0, sh.amReqHdr())
	rtt := func() {
		ctr := cliRT.NewCounter()
		hdr = memcached.AppendKeyReq(hdr[:0], memcached.KeyReq{ReplyCtr: ctr.ID(), Key: sh.key})
		must(ep.Send(cliClk, amEchoReq, hdr, nil, nil, 0, nil))
		// The request is already in the server's CQ; progress it (and
		// any flow-control traffic) until the reply has been posted.
		for ctr.Value() == 0 {
			if !srvCtx.TryProgress(srvClk) {
				must(cliCtx.WaitCounter(cliClk, ctr, 1, 0))
			}
		}
		cliRT.FreeCounter(ctr)
	}
	rtt()
	if !bytes.Equal(landing, sh.value) {
		panic("benchmark probe: ucr echo returned wrong bytes")
	}
	out["ucr.am_rtt_wall_ns"] = wallPerCall(1000, rtt)
	out["ucr.am_rtt_model_ns"] = modelPerCall(cliClk, 100, rtt)
	out["ucr.am_rtt_allocs"] = allocsPerCall(1000, rtt)
	out["ucr.self_wall_ns"] = out["ucr.am_rtt_wall_ns"] - out["verbs.pingpong_wall_ns"]
	out["ucr.self_model_ns"] = out["ucr.am_rtt_model_ns"] - out["verbs.pingpong_model_ns"]
}

// probeSockstream: Write+Read echo of the text request and reply sizes
// on cluster B's IPoIB provider, both ends driven from the probe
// goroutine.
func probeSockstream(sh shape, out values) {
	p, fab, cn, sn := twoNodes()
	prov := p.IPoIBModel.Clone(fab)
	cliClk, srvClk := simnet.NewVClock(0), simnet.NewVClock(0)
	lis, err := prov.Listen(sn, "echo")
	must(err)
	accepted := make(chan *sockstream.Conn, 1)
	go func() {
		c, _ := lis.Accept(srvClk)
		accepted <- c
	}()
	cli, err := prov.Dial(cn, sn, "echo", cliClk, dialCap)
	must(err)
	srv := <-accepted
	if srv == nil {
		panic("benchmark probe: sockstream accept failed")
	}
	lis.Close()
	cli.NoDelay, srv.NoDelay = true, true
	defer cli.Close()
	defer srv.Close()

	req, reply := sh.textReq(), make([]byte, sh.textReply())
	buf := make([]byte, len(reply))
	rtt := func() {
		_, err := cli.Write(req)
		must(err)
		_, err = io.ReadFull(srv, buf[:len(req)])
		must(err)
		_, err = srv.Write(reply)
		must(err)
		_, err = io.ReadFull(cli, buf)
		must(err)
	}
	out["sockstream.rtt_wall_ns"] = wallPerCall(1000, rtt)
	out["sockstream.rtt_model_ns"] = modelPerCall(cliClk, 100, rtt)
	out["sockstream.rtt_allocs"] = allocsPerCall(1000, rtt)
}

// loopReader serves the same request bytes forever; writes vanish.
type loopRW struct {
	req []byte
	off int
}

func (l *loopRW) Read(b []byte) (int, error) {
	n := copy(b, l.req[l.off:])
	l.off = (l.off + n) % len(l.req)
	return n, nil
}

func (l *loopRW) Write(b []byte) (int, error) { return len(b), nil }

// probeMemcached: direct Store calls at the deployment's stripe count,
// the AM codec pair a GET uses, and the text protocol's serve loop over
// an in-memory stream.
func probeMemcached(in *inputs, sh shape, out values) {
	store := memcached.NewStore(memcached.StoreConfig{MemoryLimit: 64 << 20, Stripes: 8})
	n := len(in.keys)
	if n > 1024 {
		n = 1024
	}
	for k := 0; k < n; k++ {
		mustStore(store.Set(in.keys[k], 0, 0, in.vals[k], 0))
	}
	k := 0
	get := func() {
		if _, _, _, ok := store.Get(in.keys[k], 0); !ok {
			panic("benchmark probe: store get missed")
		}
		k = (k + 1) % n
	}
	set := func() {
		store.Set(in.keys[k], 0, 0, in.vals[k], 0)
		k = (k + 1) % n
	}
	out["memcached.store_get_wall_ns"] = wallPerCall(4000, get)
	out["memcached.store_get_allocs"] = allocsPerCall(4000, get)
	out["memcached.store_set_wall_ns"] = wallPerCall(4000, set)
	out["memcached.store_set_allocs"] = allocsPerCall(4000, set)

	var reqBuf, replyBuf []byte
	out["memcached.am_codec_wall_ns"] = wallPerCall(4000, func() {
		reqBuf = memcached.AppendKeyReq(reqBuf[:0], memcached.KeyReq{ReplyCtr: 7, Key: sh.key})
		view, err := memcached.DecodeKeyReqView(reqBuf)
		if err != nil || len(view.Key) != len(sh.key) {
			panic("benchmark probe: key request codec")
		}
		replyBuf = memcached.AppendGetReply(replyBuf[:0], memcached.GetReply{Status: memcached.AMOK, CAS: 9})
		if r, err := memcached.DecodeGetReply(replyBuf); err != nil || r.CAS != 9 {
			panic("benchmark probe: get reply codec")
		}
	})

	mustStore(store.Set(sh.key, 0, 0, sh.value, 0))
	pc := memcached.NewProtoConn(&loopRW{req: sh.textReq()}, store)
	clk := simnet.NewVClock(0)
	serve := func() {
		if _, err := pc.ServeOne(clk); err != nil {
			panic(fmt.Sprintf("benchmark probe: ServeOne: %v", err))
		}
	}
	out["memcached.text_serve_wall_ns"] = wallPerCall(4000, serve)
	out["memcached.text_serve_allocs"] = allocsPerCall(4000, serve)
}

func mustStore(res memcached.StoreResult) {
	if res != memcached.Stored {
		panic(fmt.Sprintf("benchmark probe: store set = %v", res))
	}
}

// probeRing: owner lookup on a 4-member ring over the workload's keys.
func probeRing(in *inputs, out values) {
	r := ring.New(0)
	for i := 0; i < 4; i++ {
		r.AddServer(fmt.Sprintf("server%d", i))
	}
	k := 0
	next := func() string {
		k = (k + 1) % len(in.keys)
		return in.keys[k]
	}
	var sink int
	out["ring.lookup_wall_ns"] = wallPerCall(4000, func() { sink += len(r.Lookup(next())) })
	owners := func() { sink += len(r.Owners(next(), 2)) }
	out["ring.owners2_wall_ns"] = wallPerCall(4000, owners)
	out["ring.owners2_allocs"] = allocsPerCall(4000, owners)
	runtime.KeepAlive(sink)
}

// stackProbe is what the isolated transport probes report; layers.go
// turns it into the self costs of mcclient's transport and of the
// memcached server.
type stackProbe struct {
	getWall, getModel float64 // mcclient.Transport.Get on an idle deployment
	rawWall, rawModel float64 // the same request hand-encoded below mcclient
}

// probeStack measures one GET of the workload's shape on an idle
// default deployment twice: through mcclient's transport, and by
// speaking the server's protocol directly over the layer beneath
// (a bare UCR endpoint sending the AM, or a bare socket writing the
// text command). The difference is mcclient's transport; the raw
// request minus the bare-layer echo is the server.
func probeStack(w *workload, sh shape, out values) stackProbe {
	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()
	c, err := d.NewClient(w.Transport, mcclient.DefaultBehaviors())
	must(err)
	defer c.Close()
	out["cluster.dial_model_us"] = float64(c.Clock.Now()) / 1e3
	must(c.MC.Set(sh.key, sh.value, 0, 0))
	tr := c.MC.Transport(0)
	lend := make([]byte, len(sh.value))
	get := func() {
		var v []byte
		var ok bool
		var err error
		if ut, isUCR := tr.(*mcclient.UCRTransport); isUCR && w.Kind == kindPipelined {
			v, _, _, ok, err = ut.GetInto(c.Clock, sh.key, lend)
		} else {
			v, _, _, ok, err = tr.Get(c.Clock, sh.key)
		}
		if err != nil || !ok || len(v) != len(sh.value) {
			panic(fmt.Sprintf("benchmark probe: transport get = (%d bytes, %v, %v)", len(v), ok, err))
		}
	}
	var sp stackProbe
	sp.getModel = modelPerCall(c.Clock, 100, get)

	// The raw client shares the first client's clock: two clients whose
	// clocks drift apart book the server's resources out of order, which
	// on the seed makes every later op dearer (README, seed findings) and
	// would be charged to whichever side ran second.
	clk := c.Clock
	node := d.Network.AddNode("rawclient")
	var raw func()
	if w.Transport == cluster.UCRIB {
		rt := ucr.New(verbs.NewHCA(node, d.IB, d.Profile.HCA), d.CM, d.Profile.UCR)
		ctx := rt.NewContext()
		defer ctx.Destroy()
		landing := make([]byte, len(sh.value))
		rt.RegisterHandler(memcached.AMGetReply, ucr.Handler{
			Header: func(*simnet.VClock, *ucr.Endpoint, []byte, int, ucr.CounterID) []byte { return landing },
		})
		ep, err := rt.Dial(ctx, d.ServerNode, "memcached-ucr", ucr.Reliable, clk, dialCap)
		must(err)
		hdr := make([]byte, 0, sh.amReqHdr())
		raw = func() {
			ctr := rt.NewCounter()
			hdr = memcached.AppendKeyReq(hdr[:0], memcached.KeyReq{ReplyCtr: ctr.ID(), Key: sh.key})
			must(ep.Send(clk, memcached.AMGet, hdr, nil, nil, 0, nil))
			must(ctx.WaitCounter(clk, ctr, 1, 0))
			rt.FreeCounter(ctr)
		}
		raw()
		if !bytes.Equal(landing, sh.value) {
			panic("benchmark probe: raw AM get returned wrong bytes")
		}
	} else {
		d.IB.Attach(node)
		conn, err := d.Provider(w.Transport).Dial(node, d.ServerNode, "memcached-"+string(w.Transport), clk, dialCap)
		must(err)
		defer conn.Close()
		conn.NoDelay = true
		req, reply := sh.textReq(), make([]byte, sh.textReply())
		raw = func() {
			_, err := conn.Write(req)
			must(err)
			_, err = io.ReadFull(conn, reply)
			must(err)
		}
		raw()
		if !bytes.Contains(reply, sh.value) || !bytes.HasSuffix(reply, []byte("END\r\n")) {
			panic("benchmark probe: raw text get returned wrong bytes")
		}
	}
	sp.getWall, sp.rawWall = wallPerCallPair(500, get, raw)
	sp.rawModel = modelPerCall(clk, 100, raw)
	return sp
}

// fleetProbe is the routed-GET cost and the replication counters of a
// small fleet.
type fleetProbe struct {
	selfWall float64
	stats    cluster.FleetClientStats
}

// probeFleet: FleetClient.Get against a transport GET on the same
// connection (DirectGet), on a 4-server R=2 fleet.
func probeFleet(in *inputs, seed uint64) fleetProbe {
	f, err := cluster.NewFleet(cluster.ClusterB(), cluster.FleetOptions{
		Servers: 4, Replicas: 2, Behaviors: mcclient.DefaultBehaviors(), Seed: seed,
	})
	must(err)
	defer f.Close()
	fc, err := f.NewClient()
	must(err)
	defer fc.Close()
	n := len(in.keys)
	if n > 256 {
		n = 256
	}
	primary := make([]string, n)
	for k := 0; k < n; k++ {
		must(fc.Set(in.keys[k], in.vals[k], 0, 0))
		primary[k] = f.Owners(in.keys[k])[0]
	}
	k := 0
	routed, direct := wallPerCallPair(250, func() {
		if _, _, err := fc.Get(in.keys[k]); err != nil {
			panic(fmt.Sprintf("benchmark probe: fleet get: %v", err))
		}
		k = (k + 1) % n
	}, func() {
		if _, hit, err := fc.DirectGet(primary[k], in.keys[k]); err != nil || !hit {
			panic(fmt.Sprintf("benchmark probe: direct get = (%v, %v)", hit, err))
		}
		k = (k + 1) % n
	})
	return fleetProbe{selfWall: routed - direct, stats: fc.Stats}
}

// probePaper compares the model with the paper's two headline numbers
// (cluster B): a blocking 4 KB UCR GET at ≈12 µs and ≈1.8 M TPS with 16
// clients on 4 B values. Signed relative error, model minus paper.
func probePaper(seed uint64, out values) {
	const (
		paperGet4kNs = 12_000
		paperTPS16   = 1.8e6
	)
	lat := &workload{Name: "paper_get4k", Transport: cluster.UCRIB, Kind: kindBlocking, Clients: 1, ValueSize: 4096, Keys: 64}
	r, err := setup(lat, newInputs(lat, seed))
	must(err)
	p := r.measure(500, nil)
	r.close()
	out["cluster.paper_get4k_err_frac"] = p.tally.getLat.quantile(0.5)/paperGet4kNs - 1

	tps := &workload{Name: "paper_tps16", Transport: cluster.UCRIB, Kind: kindBlocking, Clients: 16, ValueSize: 4, Keys: 64}
	r, err = setup(tps, newInputs(tps, seed))
	must(err)
	p = r.measure(16*500, nil)
	r.close()
	if p.tally.failed() > 0 {
		panic("benchmark probe: paper workloads failed ops")
	}
	out["cluster.paper_tps16_err_frac"] = float64(p.ops)/p.makespan.Seconds()/paperTPS16 - 1
}
