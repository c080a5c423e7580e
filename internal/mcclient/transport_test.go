package mcclient

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// stack is an in-package test deployment: one memcached server process
// serving both a socket provider and a UCR runtime.
type stack struct {
	nw      *simnet.Network
	fab     *simnet.Fabric
	cm      *verbs.CM
	prov    *sockstream.Provider
	srvNode *simnet.Node
	server  *memcached.Server
}

func newStack(t testing.TB) *stack {
	t.Helper()
	st := &stack{}
	st.nw = simnet.NewNetwork()
	st.srvNode = st.nw.AddNode("server")
	st.fab = st.nw.AddFabric(simnet.FabricSpec{
		Name:            "ib",
		LinkBytesPerSec: 2e9,
		Propagation:     300,
		SwitchDelay:     100,
	})
	st.fab.Attach(st.srvNode)
	st.cm = verbs.NewCM(st.fab)
	st.prov = &sockstream.Provider{
		Name:        "test-sock",
		Fabric:      st.fab,
		SendSyscall: 2000,
		RecvSyscall: 3000,
		SegmentSize: 8192,
	}
	st.server = memcached.NewServer(st.nw.Executor(), memcached.ServerConfig{Workers: 2})
	lis, err := st.prov.Listen(st.srvNode, "mc")
	if err != nil {
		t.Fatal(err)
	}
	st.server.ServeSockets(lis)
	hca := verbs.NewHCA(st.srvNode, st.fab, verbs.Config{
		PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100,
	})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	if err := st.server.ServeUCR(rt, "mc-ucr"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.server.Close)
	return st
}

// sockClient dials a socket transport to the memcached server from a
// fresh node.
func (st *stack) sockClient(t testing.TB) *SockTransport { return st.dialSock(t, "mc") }

// dialSock dials a socket transport from a fresh node to a named service
// on the server node.
func (st *stack) dialSock(t testing.TB, service string) *SockTransport {
	t.Helper()
	node := st.nw.AddNode(fmt.Sprintf("sockcli%d", len(st.nw.Nodes())))
	st.fab.Attach(node)
	tr, err := DialSock(st.prov, node, st.srvNode, service, simnet.NewVClock(0))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// ucrClient dials a UCR transport from a fresh node.
func (st *stack) ucrClient(t testing.TB) (*UCRTransport, *ucr.Context) {
	t.Helper()
	node := st.nw.AddNode(fmt.Sprintf("ucrcli%d", len(st.nw.Nodes())))
	hca := verbs.NewHCA(node, st.fab, verbs.Config{
		PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100,
	})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	tr, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", DefaultBehaviors(), simnet.NewVClock(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Destroy)
	return tr, ctx
}

// TestUCRZeroReplyCounterSetIsQuiet: the client library always asks for
// a reply, but the server still honours a set that names no reply
// counter (the AM protocol's noreply): it stores the item and answers
// nothing.
func TestUCRZeroReplyCounterSetIsQuiet(t *testing.T) {
	st := newStack(t)
	tr, ctx := st.ucrClient(t)
	defer tr.Close()
	clk := simnet.NewVClock(0)
	amsBefore, _, _, _, _ := ctx.Stats()
	origin := tr.rt.NewCounter()
	hdr := memcached.AppendSetReq(nil, memcached.SetReq{Key: "quiet"})
	if err := tr.ep.Send(clk, memcached.AMSet, hdr, []byte("v"), origin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitCounter(clk, origin, 1, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, ok, err := tr.Get(clk, "quiet")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after a quiet set = (%q, %v, %v)", v, ok, err)
	}
	if amsAfter, _, _, _, _ := ctx.Stats(); amsAfter-amsBefore != 1 {
		t.Fatalf("%d AMs reached the client, want 1 (the get's reply only)", amsAfter-amsBefore)
	}
}

func TestSockTransportFullOps(t *testing.T) {
	st := newStack(t)
	tr := st.sockClient(t)
	defer tr.Close()
	clk := simnet.NewVClock(0)

	if res, err := tr.Set(clk, "k", 7, 0, []byte("value")); err != nil || res != memcached.Stored {
		t.Fatalf("Set = (%v, %v)", res, err)
	}
	v, flags, cas, ok, err := tr.Get(clk, "k")
	if err != nil || !ok || string(v) != "value" || flags != 7 || cas == 0 {
		t.Fatalf("Get = (%q, %d, %d, %v, %v)", v, flags, cas, ok, err)
	}
	if _, _, _, ok, err := tr.Get(clk, "absent"); err != nil || ok {
		t.Fatalf("miss = (%v, %v)", ok, err)
	}

	// Batched multi-get over the text protocol.
	tr.Set(clk, "a", 0, 0, []byte("1"))
	tr.Set(clk, "b", 0, 0, []byte("22"))
	got, err := tr.GetMulti(clk, []string{"a", "b", "zzz"})
	if err != nil || len(got) != 2 || string(got["b"]) != "22" {
		t.Fatalf("GetMulti = (%v, %v)", got, err)
	}
	if empty, err := tr.GetMulti(clk, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty GetMulti = (%v, %v)", empty, err)
	}

	if ok, err := tr.Delete(clk, "a"); err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if ok, err := tr.Delete(clk, "a"); err != nil || ok {
		t.Fatalf("double Delete = (%v, %v)", ok, err)
	}

	tr.Set(clk, "n", 0, 0, []byte("5"))
	if val, found, bad, err := tr.IncrDecr(clk, "n", 10, true); err != nil || !found || bad || val != 15 {
		t.Fatalf("Incr = (%d, %v, %v, %v)", val, found, bad, err)
	}
	if val, found, bad, err := tr.IncrDecr(clk, "n", 100, false); err != nil || !found || bad || val != 0 {
		t.Fatalf("Decr = (%d, %v, %v, %v)", val, found, bad, err)
	}
	if _, found, _, err := tr.IncrDecr(clk, "absent", 1, true); err != nil || found {
		t.Fatalf("Incr miss = (%v, %v)", found, err)
	}
	tr.Set(clk, "txt", 0, 0, []byte("abc"))
	if _, found, bad, err := tr.IncrDecr(clk, "txt", 1, true); err != nil || !found || !bad {
		t.Fatalf("Incr non-numeric = (%v, %v, %v)", found, bad, err)
	}

	// Server stats over the wire.
	stats, err := tr.Stats(clk)
	if err != nil || stats["cmd_set"] == 0 {
		t.Fatalf("Stats = (%v, %v)", stats, err)
	}
	if tr.Name() == "" {
		t.Fatal("empty transport name")
	}
}

func TestUCRTransportFullOps(t *testing.T) {
	st := newStack(t)
	tr, _ := st.ucrClient(t)
	defer tr.Close()
	clk := simnet.NewVClock(0)

	if res, err := tr.Set(clk, "k", 3, 0, []byte("ucr-value")); err != nil || res != memcached.Stored {
		t.Fatalf("Set = (%v, %v)", res, err)
	}
	v, flags, _, ok, err := tr.Get(clk, "k")
	if err != nil || !ok || string(v) != "ucr-value" || flags != 3 {
		t.Fatalf("Get = (%q, %d, %v, %v)", v, flags, ok, err)
	}
	if _, _, _, ok, err := tr.Get(clk, "absent"); err != nil || ok {
		t.Fatalf("miss = (%v, %v)", ok, err)
	}

	// Large value: rendezvous both directions.
	big := bytes.Repeat([]byte{0xAB}, 100_000)
	if res, err := tr.Set(clk, "big", 0, 0, big); err != nil || res != memcached.Stored {
		t.Fatalf("big Set = (%v, %v)", res, err)
	}
	bv, _, _, ok, err := tr.Get(clk, "big")
	if err != nil || !ok || !bytes.Equal(bv, big) {
		t.Fatalf("big Get corrupted (%d bytes, %v, %v)", len(bv), ok, err)
	}

	tr.Set(clk, "m1", 0, 0, []byte("one"))
	if ok, err := tr.Delete(clk, "m1"); err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	tr.Set(clk, "n", 0, 0, []byte("41"))
	if val, found, bad, err := tr.IncrDecr(clk, "n", 1, true); err != nil || !found || bad || val != 42 {
		t.Fatalf("Incr = (%d, %v, %v, %v)", val, found, bad, err)
	}
	if _, found, _, err := tr.IncrDecr(clk, "absent", 1, false); err != nil || found {
		t.Fatalf("Decr miss = (%v, %v)", found, err)
	}
	tr.Set(clk, "txt", 0, 0, []byte("xyz"))
	if _, found, bad, err := tr.IncrDecr(clk, "txt", 1, false); err != nil || !found || !bad {
		t.Fatalf("Decr non-numeric = (%v, %v, %v)", found, bad, err)
	}
	if tr.Endpoint() == nil {
		t.Fatal("nil endpoint")
	}
}

// TestUCRGetMultiCallers drives the one mget path through its three
// callers — blocking, lent-buffer, and a concentrated session — with a
// small batch (one active message) and one past every per-AM bound:
// 70 000 keys overflow the header's uint16 key count AND the eager
// header limit, so the batch must go out as many AMs and come back
// whole.
func TestUCRGetMultiCallers(t *testing.T) {
	st := newStack(t)
	tr, _ := st.ucrClient(t)
	defer tr.Close()
	trunk, _ := st.ucrClient(t)
	mux := NewSessionMux(trunk)
	defer mux.Close()
	clk := simnet.NewVClock(0)

	keys := make([]string, 70_000)
	want := make(map[string]string)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk%05d", i)
		if i%997 == 0 {
			want[keys[i]] = "value-of-" + keys[i]
			if _, err := tr.Set(clk, keys[i], 0, 0, []byte(want[keys[i]])); err != nil {
				t.Fatal(err)
			}
		}
	}
	inputs := []struct {
		name string
		keys []string
	}{
		{"one AM", []string{keys[0], keys[997], "absent"}},
		{"70000 keys", keys},
	}
	callers := []struct {
		name string
		call func(keys []string) (map[string][]byte, error)
	}{
		{"GetMulti", func(keys []string) (map[string][]byte, error) { return tr.GetMulti(clk, keys) }},
		{"GetMultiInto", func(keys []string) (map[string][]byte, error) {
			return tr.GetMultiInto(clk, keys, make([]byte, 0, 4096))
		}},
		{"Session.GetMulti", func(keys []string) (map[string][]byte, error) { return mux.Session(1).GetMulti(clk, keys) }},
	}
	for _, in := range inputs {
		for _, c := range callers {
			got, err := c.call(in.keys)
			if err != nil {
				t.Fatalf("%s(%s): %v", c.name, in.name, err)
			}
			hits := 0
			for _, k := range in.keys {
				if string(got[k]) != want[k] {
					t.Fatalf("%s(%s): %s = %q, want %q", c.name, in.name, k, got[k], want[k])
				}
				if _, ok := want[k]; ok {
					hits++
				}
			}
			if len(got) != hits {
				t.Fatalf("%s(%s): %d entries, want %d", c.name, in.name, len(got), hits)
			}
		}
	}
	if empty, err := tr.GetMulti(clk, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty GetMulti = (%v, %v)", empty, err)
	}
}

func TestMixedTransportsShareEngine(t *testing.T) {
	st := newStack(t)
	sock := st.sockClient(t)
	defer sock.Close()
	ucrTr, _ := st.ucrClient(t)
	defer ucrTr.Close()
	clk := simnet.NewVClock(0)

	if _, err := ucrTr.Set(clk, "shared", 0, 0, []byte("via-ucr")); err != nil {
		t.Fatal(err)
	}
	v, _, _, ok, err := sock.Get(clk, "shared")
	if err != nil || !ok || string(v) != "via-ucr" {
		t.Fatalf("sock read = (%q, %v, %v)", v, ok, err)
	}
}

func TestUCRTransportTimeout(t *testing.T) {
	st := newStack(t)
	b := DefaultBehaviors()
	b.OpTimeout = 100 * simnet.Microsecond
	node := st.nw.AddNode("timeout-cli")
	hca := verbs.NewHCA(node, st.fab, verbs.Config{PostOverhead: 50, SendProc: 300, RecvProc: 300, PollOverhead: 100})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	tr, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", b, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Set(clk, "warm", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.srvNode.Fail()
	if _, err := tr.Set(clk, "dead", 0, 0, []byte("v")); err != ErrServerDown {
		t.Fatalf("err = %v, want ErrServerDown", err)
	}
}

// TestArmFailureLeavesNothingArmed: a capability exchange that cannot
// complete fails the arming call and leaves neither fast path armed (the
// arena registered for it is dropped, not leaked into the transport).
func TestArmFailureLeavesNothingArmed(t *testing.T) {
	st := newStack(t)
	b := DefaultBehaviors()
	b.OpTimeout = 100 * simnet.Microsecond
	node := st.nw.AddNode("arm-cli")
	hca := verbs.NewHCA(node, st.fab, verbs.Config{PostOverhead: 50, SendProc: 300, RecvProc: 300, PollOverhead: 100})
	rt := ucr.New(hca, st.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	tr, err := DialUCR(rt, ctx, st.srvNode, "mc-ucr", b, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	st.srvNode.Fail()
	if err := tr.Arm(clk, true, true); err != ErrServerDown {
		t.Fatalf("Arm err = %v, want ErrServerDown", err)
	}
	if tr.wr.win != nil || tr.os.enabled {
		t.Fatalf("failed Arm left a path armed: wr.win=%v os.enabled=%v", tr.wr.win, tr.os.enabled)
	}
}
