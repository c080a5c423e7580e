// Package memcached_test exercises the Server's dispatcher/worker
// machinery in-package-tree via the real transports (the engine and
// codec have their own unit tests in package memcached).
package memcached_test

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

type env struct {
	nw      *simnet.Network
	fab     *simnet.Fabric
	cm      *verbs.CM
	prov    *sockstream.Provider
	srvNode *simnet.Node
	srvHCA  *verbs.HCA
	server  *memcached.Server
	raws    int // raw connections opened, for unique node names
}

func hcaCfg() verbs.Config {
	return verbs.Config{PostOverhead: 50, SendProc: 300, RecvProc: 300, RDMAProc: 400, PollOverhead: 100}
}

func newEnv(t *testing.T, workers int) *env {
	t.Helper()
	e := &env{}
	e.nw = simnet.NewNetwork()
	e.srvNode = e.nw.AddNode("server")
	e.fab = e.nw.AddFabric(simnet.FabricSpec{Name: "ib", LinkBytesPerSec: 2e9, Propagation: 300})
	e.fab.Attach(e.srvNode)
	e.cm = verbs.NewCM(e.fab)
	e.prov = &sockstream.Provider{Name: "sock", Fabric: e.fab, SegmentSize: 8192}
	e.server = memcached.NewServer(e.nw.Executor(), memcached.ServerConfig{Workers: workers})
	lis, err := e.prov.Listen(e.srvNode, "mc")
	if err != nil {
		t.Fatal(err)
	}
	e.server.ServeSockets(lis)
	e.srvHCA = verbs.NewHCA(e.srvNode, e.fab, hcaCfg())
	if err := e.server.ServeUCR(ucr.New(e.srvHCA, e.cm, ucr.Config{}), "mc-ucr"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.server.Close)
	return e
}

// rawConn opens a raw text-protocol connection.
func (e *env) rawConn(t *testing.T) (*sockstream.Conn, *bufio.Reader) {
	t.Helper()
	e.raws++
	node := e.nw.AddNode(fmt.Sprintf("raw%d", e.raws))
	e.fab.Attach(node)
	conn, err := e.prov.Dial(node, e.srvNode, "mc", simnet.NewVClock(0), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

func TestServerRawTextProtocol(t *testing.T) {
	e := newEnv(t, 2)
	conn, r := e.rawConn(t)
	defer conn.Close()

	fmt.Fprintf(conn, "set hello 0 0 5\r\nworld\r\n")
	if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("set reply = %q", line)
	}
	fmt.Fprintf(conn, "get hello\r\n")
	if line, _ := r.ReadString('\n'); line != "VALUE hello 0 5\r\n" {
		t.Fatalf("get header = %q", line)
	}
	if line, _ := r.ReadString('\n'); line != "world\r\n" {
		t.Fatalf("get body = %q", line)
	}
	if line, _ := r.ReadString('\n'); line != "END\r\n" {
		t.Fatalf("get trailer = %q", line)
	}
	if st := e.server.Store().Stats(); st.CmdGet+st.CmdSet != 2 {
		t.Fatalf("cmd_get+cmd_set = %d+%d, want 2", st.CmdGet, st.CmdSet)
	}
}

func TestServerPipelinedBurst(t *testing.T) {
	// Several commands in one segment: one readability event must drain
	// them all (the server's burst loop).
	e := newEnv(t, 1)
	conn, r := e.rawConn(t)
	defer conn.Close()

	var req strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&req, "set k%d 0 0 2\r\nvv\r\n", i)
	}
	if _, err := conn.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if line, err := r.ReadString('\n'); err != nil || line != "STORED\r\n" {
			t.Fatalf("reply %d = (%q, %v)", i, line, err)
		}
	}
	if got := e.server.Store().Stats().CurrItems; got != 10 {
		t.Fatalf("CurrItems = %d", got)
	}
}

func TestServerQuitClosesConn(t *testing.T) {
	e := newEnv(t, 1)
	conn, r := e.rawConn(t)
	fmt.Fprintf(conn, "quit\r\n")
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection should be closed after quit")
	}
}

func TestServerManyConnsAcrossWorkers(t *testing.T) {
	e := newEnv(t, 3)
	for i := 0; i < 9; i++ {
		conn, r := e.rawConn(t)
		fmt.Fprintf(conn, "set key%d 0 0 1\r\nx\r\n", i)
		if line, _ := r.ReadString('\n'); line != "STORED\r\n" {
			t.Fatalf("conn %d reply %q", i, line)
		}
		conn.Close()
	}
	busy := 0
	for _, c := range e.server.WorkerClocks() {
		if c > 0 {
			busy++
		}
	}
	if busy != 3 {
		t.Fatalf("busy workers = %d, want 3 (round-robin)", busy)
	}
}

func TestServerCloseIdempotentAndProtocolError(t *testing.T) {
	e := newEnv(t, 1)
	conn, r := e.rawConn(t)
	fmt.Fprintf(conn, "gibberish\r\n")
	if line, _ := r.ReadString('\n'); line != "ERROR\r\n" {
		t.Fatalf("reply = %q", line)
	}
	e.server.Close()
	e.server.Close() // idempotent
}

func TestServerUCRSetGetViaClientLib(t *testing.T) {
	e := newEnv(t, 2)
	node := e.nw.AddNode("cli")
	rt := ucr.New(verbs.NewHCA(node, e.fab, hcaCfg()), e.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	tr, err := mcclient.DialUCR(rt, ctx, e.srvNode, "mc-ucr", mcclient.DefaultBehaviors(), clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if res, err := tr.Set(clk, "x", 0, 0, []byte("y")); err != nil || res != memcached.Stored {
		t.Fatalf("Set = (%v, %v)", res, err)
	}
	v, _, _, ok, err := tr.Get(clk, "x")
	if err != nil || !ok || string(v) != "y" {
		t.Fatalf("Get = (%q, %v, %v)", v, ok, err)
	}
	// Both frontends share the one store.
	conn, r := e.rawConn(t)
	defer conn.Close()
	fmt.Fprintf(conn, "get x\r\n")
	if line, _ := r.ReadString('\n'); line != "VALUE x 0 1\r\n" {
		t.Fatalf("cross-frontend get = %q", line)
	}
}

// dialUCR connects a UCR client from a new node.
func (e *env) dialUCR(t *testing.T, name string) (*mcclient.UCRTransport, *simnet.VClock, *simnet.Node) {
	t.Helper()
	node := e.nw.AddNode(name)
	rt := ucr.New(verbs.NewHCA(node, e.fab, hcaCfg()), e.cm, ucr.Config{})
	ctx := rt.NewContext()
	t.Cleanup(ctx.Destroy)
	clk := simnet.NewVClock(0)
	tr, err := mcclient.DialUCR(rt, ctx, e.srvNode, "mc-ucr", mcclient.DefaultBehaviors(), clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr, clk, node
}

// mustSet stores key through tr or fails the test.
func mustSet(t *testing.T, tr *mcclient.UCRTransport, clk *simnet.VClock, key string, val []byte) {
	t.Helper()
	if res, err := tr.Set(clk, key, 0, 0, val); err != nil || res != memcached.Stored {
		t.Fatalf("Set %s = (%v, %v)", key, res, err)
	}
}

// TestRendezvousSetFailedReadFreesItem: a rendezvous Set whose RDMA read
// of the value fails never completes — the server marks the endpoint
// failed instead — so the worker must release the item the header
// handler allocated. Left pinned, its slab chunk is lost for good.
func TestRendezvousSetFailedReadFreesItem(t *testing.T) {
	e := newEnv(t, 1)
	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 7})
	e.fab.SetFaults(fi)
	store := e.server.Store()
	val := make([]byte, 32<<10) // far above the eager limit: the server RDMA-reads it
	tr, clk, cli := e.dialUCR(t, "lossy")
	mustSet(t, tr, clk, "anchor", val)
	free := store.ClassFree([]byte("anchor"))

	// Every server→client frame is lost: the server's read request for
	// the value never reaches the client, and the read fails.
	fi.DropNext(e.srvNode, cli, 1000)
	if _, err := tr.Set(clk, "lost", 0, 0, val); err == nil {
		t.Fatal("Set over a dead reverse path succeeded")
	}
	fresh, fclk, _ := e.dialUCR(t, "fresh")
	for i := 0; i < 3; i++ {
		mustSet(t, fresh, fclk, "again", val)
		if ok, err := fresh.Delete(fclk, "again"); err != nil || !ok {
			t.Fatalf("round %d Delete = (%v, %v)", i, ok, err)
		}
	}
	if got := store.ClassFree([]byte("anchor")); got != free {
		t.Fatalf("free chunks in the 32 KB class = %d, want %d: the failed Set's item leaked", got, free)
	}
}

// TestRendezvousSetReadInFlightCommits: an endpoint that fails while a
// rendezvous Set's read is still in flight keeps that Set — the read
// lands and commits it, as it always has — instead of aborting it with
// the Sets whose reads failed.
func TestRendezvousSetReadInFlightCommits(t *testing.T) {
	e := newEnv(t, 1)
	store := e.server.Store()
	b, bclk, _ := e.dialUCR(t, "b")
	val := bytes.Repeat([]byte("v"), 64<<10)
	mustSet(t, b, bclk, "anchor", val)
	free := store.ClassFree([]byte("anchor"))

	// A raw endpoint sends the Set and then a GET carrying data, a
	// protocol violation the server answers by failing the endpoint —
	// after it has posted the Set's read, before the read lands.
	rt := ucr.New(verbs.NewHCA(e.nw.AddNode("raw"), e.fab, hcaCfg()), e.cm, ucr.Config{})
	ctx := rt.NewContext()
	t.Cleanup(ctx.Destroy)
	clk := simnet.NewVClock(bclk.Now())
	ep, err := rt.Dial(ctx, e.srvNode, "mc-ucr", ucr.Reliable, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := memcached.AppendSetReq(nil, memcached.SetReq{Key: "big"})
	if err := ep.Send(clk, memcached.AMSet, hdr, val, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(clk, memcached.AMGet, nil, []byte{0}, nil, 0, nil); err != nil {
		t.Fatal(err)
	}

	// The first GET steps the server through both messages; the second
	// queues behind the read's completion.
	bclk.AdvanceTo(clk.Now())
	for _, key := range []string{"anchor", "big"} {
		got, _, _, ok, err := b.Get(bclk, key)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("Get %s = (%d B, %v, %v), want the stored value", key, len(got), ok, err)
		}
	}
	if got := store.ClassFree([]byte("anchor")); got != free-1 {
		t.Fatalf("free chunks in the 64 KB class = %d, want %d", got, free-1)
	}
}
