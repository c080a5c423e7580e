// Package memcached_test exercises the Server's dispatcher/worker
// machinery in-package-tree via the real transports (the engine and
// codec have their own unit tests in package memcached).
package memcached_test

import (
	"bufio"
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
	server  *memcached.Server
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
	rt := ucr.New(verbs.NewHCA(e.srvNode, e.fab, hcaCfg()), e.cm, ucr.Config{})
	if err := e.server.ServeUCR(rt, "mc-ucr"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.server.Close)
	return e
}

// rawConn opens a raw text-protocol connection.
func (e *env) rawConn(t *testing.T) (*sockstream.Conn, *bufio.Reader) {
	t.Helper()
	node := e.nw.AddNode(fmt.Sprintf("raw%d", len(e.nw.Nodes())))
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
	if e.server.OpsServed.Load() != 2 {
		t.Fatalf("OpsServed = %d", e.server.OpsServed.Load())
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
	if got := e.server.Store().CurrItems(); got != 10 {
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
