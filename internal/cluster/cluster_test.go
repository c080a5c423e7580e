package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// allTransports runs f once per transport available on the profile.
func allTransports(t *testing.T, p *Profile, f func(t *testing.T, d *Deployment, c *Client)) {
	t.Helper()
	for _, tr := range p.Transports {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			d := New(p, Options{})
			defer d.Close()
			c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			f(t, d, c)
		})
	}
}

func TestSetGetAllTransportsClusterA(t *testing.T) {
	allTransports(t, ClusterA(), func(t *testing.T, d *Deployment, c *Client) {
		testSetGetRoundtrip(t, c)
	})
}

func TestSetGetAllTransportsClusterB(t *testing.T) {
	allTransports(t, ClusterB(), func(t *testing.T, d *Deployment, c *Client) {
		testSetGetRoundtrip(t, c)
	})
}

func testSetGetRoundtrip(t *testing.T, c *Client) {
	t.Helper()
	for _, size := range []int{1, 64, 4096, 8192, 65536} {
		key := fmt.Sprintf("key-%d", size)
		val := bytes.Repeat([]byte{byte(size)}, size)
		for i := range val {
			val[i] = byte(i*7 + size)
		}
		if err := c.MC.Set(key, val, uint32(size), 0); err != nil {
			t.Fatalf("Set %d: %v", size, err)
		}
		got, flags, _, err := c.MC.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", size, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("size %d: value corrupted in transit", size)
		}
		if flags != uint32(size) {
			t.Fatalf("size %d: flags = %d", size, flags)
		}
	}
	if _, _, _, err := c.MC.Get("never-set"); err != mcclient.ErrCacheMiss {
		t.Fatalf("miss err = %v", err)
	}
	if c.Clock.Now() == 0 {
		t.Fatal("client clock never advanced")
	}
}

func TestDeleteIncrDecrOverUCRAndSockets(t *testing.T) {
	for _, tr := range []Transport{UCRIB, IPoIB} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			d := New(ClusterA(), Options{})
			defer d.Close()
			c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if err := c.MC.Set("counter", []byte("100"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if v, err := c.MC.Incr("counter", 20); err != nil || v != 120 {
				t.Fatalf("Incr = (%d, %v)", v, err)
			}
			if v, err := c.MC.Decr("counter", 1000); err != nil || v != 0 {
				t.Fatalf("Decr = (%d, %v)", v, err)
			}
			if _, err := c.MC.Incr("missing", 1); err != mcclient.ErrCacheMiss {
				t.Fatalf("Incr missing = %v", err)
			}
			if err := c.MC.Set("text", []byte("abc"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.MC.Incr("text", 1); err != mcclient.ErrBadValue {
				t.Fatalf("Incr non-numeric = %v", err)
			}
			if err := c.MC.Delete("counter"); err != nil {
				t.Fatal(err)
			}
			if err := c.MC.Delete("counter"); err != mcclient.ErrCacheMiss {
				t.Fatalf("double delete = %v", err)
			}
		})
	}
}

func TestUCRLargeValuesUseRDMA(t *testing.T) {
	d := New(ClusterA(), Options{})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := make([]byte, 512*1024)
	for i := range val {
		val[i] = byte(i % 251)
	}
	if err := c.MC.Set("big", val, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := c.MC.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("512 KB value corrupted")
	}
}

func TestMultipleClientsSharedServer(t *testing.T) {
	d := New(ClusterB(), Options{})
	defer d.Close()
	const n = 8
	clients := make([]*Client, n)
	for i := range clients {
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Concurrent closed-loop traffic from all clients.
	done := make(chan error, n)
	for i, c := range clients {
		go func(i int, c *Client) {
			for op := 0; op < 50; op++ {
				key := fmt.Sprintf("c%d-k%d", i, op)
				if err := c.MC.Set(key, []byte(key), 0, 0); err != nil {
					done <- err
					return
				}
				v, _, _, err := c.MC.Get(key)
				if err != nil {
					done <- err
					return
				}
				if string(v) != key {
					done <- fmt.Errorf("value mismatch for %s", key)
					return
				}
			}
			done <- nil
		}(i, c)
	}
	for range clients {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Server.OpsServed.Load(); got != n*100 {
		t.Fatalf("OpsServed = %d, want %d", got, n*100)
	}
}

func TestMixedTransportsOneServer(t *testing.T) {
	// The paper's compatibility goal (§V-A): sockets clients and UCR
	// clients served by the same process, seeing the same data.
	d := New(ClusterA(), Options{})
	defer d.Close()
	ucrCli, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer ucrCli.Close()
	sockCli, err := d.NewClient(TOE10G, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer sockCli.Close()

	if err := ucrCli.MC.Set("shared", []byte("written-via-ucr"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := sockCli.MC.Get("shared")
	if err != nil || string(v) != "written-via-ucr" {
		t.Fatalf("sockets client read = (%q, %v)", v, err)
	}
	if err := sockCli.MC.Set("shared", []byte("updated-via-sockets"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v2, _, _, err := ucrCli.MC.Get("shared")
	if err != nil || string(v2) != "updated-via-sockets" {
		t.Fatalf("ucr client read = (%q, %v)", v2, err)
	}
}

func TestUCRFasterThanSockets(t *testing.T) {
	// The paper's headline: the UCR design beats every sockets path.
	// Run the same closed loop per transport and compare mean latency.
	lat := map[Transport]simnet.Time{}
	for _, tr := range []Transport{UCRIB, IPoIB, SDP, TOE10G} {
		d := New(ClusterA(), Options{})
		c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte("v"), 4096)
		if err := c.MC.Set("k", val, 0, 0); err != nil {
			t.Fatal(err)
		}
		start := c.Clock.Now()
		const ops = 50
		for i := 0; i < ops; i++ {
			if _, _, _, err := c.MC.Get("k"); err != nil {
				t.Fatal(err)
			}
		}
		lat[tr] = (c.Clock.Now() - start) / ops
		c.Close()
		d.Close()
	}
	for _, tr := range []Transport{IPoIB, SDP, TOE10G} {
		if lat[UCRIB] >= lat[tr] {
			t.Errorf("UCR (%v) not faster than %s (%v)", lat[UCRIB], tr, lat[tr])
		}
	}
	t.Logf("4KB get latency: UCR=%v IPoIB=%v SDP=%v TOE=%v",
		lat[UCRIB], lat[IPoIB], lat[SDP], lat[TOE10G])
}

func TestExpiryAcrossTransport(t *testing.T) {
	d := New(ClusterA(), Options{})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 1-second expiry; virtual clocks move in µs here, so jump ahead.
	if err := c.MC.Set("ephemeral", []byte("v"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.MC.Get("ephemeral"); err != nil {
		t.Fatalf("fresh item missing: %v", err)
	}
	c.Clock.Advance(2 * simnet.Second)
	if _, _, _, err := c.MC.Get("ephemeral"); err != mcclient.ErrCacheMiss {
		t.Fatalf("expired item: err = %v", err)
	}
}

func TestProfileShape(t *testing.T) {
	a, b := ClusterA(), ClusterB()
	if !a.HasTransport(TOE10G) || b.HasTransport(TOE10G) {
		t.Fatal("10GigE present on wrong cluster (paper: no 10GigE on B)")
	}
	if b.IB.LinkBytesPerSec <= a.IB.LinkBytesPerSec {
		t.Fatal("QDR should be faster than DDR")
	}
	if b.SDPModel.Jitter == nil || (a.SDPModel.Jitter != nil) {
		t.Fatal("SDP jitter belongs to cluster B only")
	}
	if ProfileByName("A").Name != "A" || ProfileByName("B").Name != "B" {
		t.Fatal("ProfileByName")
	}
}

func TestClientRejectsUnavailableTransport(t *testing.T) {
	d := New(ClusterB(), Options{})
	defer d.Close()
	if _, err := d.NewClient(TOE10G, mcclient.DefaultBehaviors()); err == nil {
		t.Fatal("cluster B should not offer 10GigE")
	}
}

func TestWorkerRoundRobin(t *testing.T) {
	d := New(ClusterA(), Options{ServerWorkers: 4})
	defer d.Close()
	// More clients than workers; every worker should see traffic.
	var clients []*Client
	for i := 0; i < 8; i++ {
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.MC.Set(fmt.Sprintf("k%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, clk := range d.Server.WorkerClocks() {
		if clk > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("busy workers = %d, want 4 (round-robin)", busy)
	}
}

func TestGetMultiBatchedOverUCRAndSockets(t *testing.T) {
	for _, tr := range []Transport{UCRIB, TOE10G} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			d := New(ClusterA(), Options{})
			defer d.Close()
			c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := make([]string, 20)
			for i := range keys {
				keys[i] = fmt.Sprintf("batch-%02d", i)
				val := bytes.Repeat([]byte{byte(i)}, 100+i)
				if err := c.MC.Set(keys[i], val, uint32(i), 0); err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.MC.GetMulti(append(keys, "not-there"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(keys) {
				t.Fatalf("GetMulti returned %d of %d", len(got), len(keys))
			}
			for i, k := range keys {
				want := bytes.Repeat([]byte{byte(i)}, 100+i)
				if !bytes.Equal(got[k], want) {
					t.Fatalf("value for %s corrupted", k)
				}
			}
			if _, hit := got["not-there"]; hit {
				t.Fatal("missing key present in result")
			}
		})
	}
}

func TestGetMultiLargeAggregateUCR(t *testing.T) {
	// A batch whose concatenated values exceed the eager threshold must
	// come back via one client RDMA read (rendezvous) and stay intact.
	d := New(ClusterB(), Options{})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("big-%d", i)
		val := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if err := c.MC.Set(keys[i], val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.MC.GetMulti(keys) // 32 KB aggregate > 8 KB threshold
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !bytes.Equal(got[k], bytes.Repeat([]byte{byte(i + 1)}, 4096)) {
			t.Fatalf("large mget corrupted %s", k)
		}
	}
}

func TestMultiServerSharding(t *testing.T) {
	d := New(ClusterB(), Options{Servers: 4})
	defer d.Close()
	if len(d.Servers) != 4 || len(d.ServerNodes) != 4 {
		t.Fatalf("servers = %d", len(d.Servers))
	}
	b := mcclient.DefaultBehaviors()
	b.Distribution = mcclient.DistKetama
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("shard-%d", i)
		if err := c.MC.Set(k, []byte(k), 0, 0); err != nil {
			t.Fatal(err)
		}
		v, _, _, err := c.MC.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("Get %s = (%q, %v)", k, v, err)
		}
	}
	// Every server holds a share of the keyspace.
	for i, srv := range d.Servers {
		if srv.Store().CurrItems() == 0 {
			t.Errorf("server %d received no items (hashing not spreading)", i)
		}
	}
	// And the client can batch across shards.
	keys := []string{"shard-1", "shard-50", "shard-100", "shard-150"}
	got, err := c.MC.GetMulti(keys)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("cross-shard GetMulti = (%d, %v)", len(got), err)
	}
}

func TestMultiServerFailover(t *testing.T) {
	// A server node dies; with AutoEject the client re-hashes onto the
	// survivors and keeps working (§IV-A corrective action, end to end).
	d := New(ClusterB(), Options{Servers: 3})
	defer d.Close()
	b := mcclient.DefaultBehaviors()
	b.Distribution = mcclient.DistKetama
	b.AutoEject = true
	b.OpTimeout = 200 * simnet.Microsecond
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 60; i++ {
		if err := c.MC.Set(fmt.Sprintf("fk-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.ServerNodes[1].Fail()
	// Every key remains settable: ops on the dead shard eject it and
	// land on survivors.
	for i := 0; i < 60; i++ {
		if err := c.MC.Set(fmt.Sprintf("fk-%d", i), []byte("v2"), 0, 0); err != nil {
			t.Fatalf("set after server death: %v", err)
		}
	}
	if got := c.MC.Ejected(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Ejected = %v", got)
	}
	if c.MC.LiveServers() != 2 {
		t.Fatalf("LiveServers = %d", c.MC.LiveServers())
	}
}

// TestGetMultiFailureIsAFunctionOfItsInputs: a multi-server GetMulti that
// meets a closed server must stop at the same group every time, so the
// keys it returns, its error and the client's clock are one outcome, not
// one per Go map iteration order.
func TestGetMultiFailureIsAFunctionOfItsInputs(t *testing.T) {
	type outcome struct {
		n   int
		err string
		clk simnet.Time
	}
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%d", i)
	}
	run := func() outcome {
		d := New(ClusterB(), Options{Servers: 4})
		defer d.Close()
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, k := range keys {
			if err := c.MC.Set(k, []byte(k), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.Servers[2].Close()
		out, err := c.MC.GetMulti(keys)
		if err == nil {
			t.Fatal("GetMulti across a closed server succeeded")
		}
		return outcome{len(out), err.Error(), c.Clock.Now()}
	}
	first := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: GetMulti = %+v, run 0 = %+v", i, got, first)
		}
	}
}

func TestSingleClientDeterminism(t *testing.T) {
	// Closed-loop single-client runs are exactly reproducible: same
	// seed, same workload, same virtual timestamps. This is what makes
	// the latency figures stable across machines.
	run := func() []simnet.Time {
		d := New(ClusterB(), Options{})
		defer d.Close()
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var stamps []simnet.Time
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("det-%d", i%5)
			if i%3 == 0 {
				if err := c.MC.Set(key, bytes.Repeat([]byte("v"), 100+i), 0, 0); err != nil {
					t.Fatal(err)
				}
			} else if _, _, _, err := c.MC.Get(key); err != nil && err != mcclient.ErrCacheMiss {
				t.Fatal(err)
			}
			stamps = append(stamps, c.Clock.Now())
		}
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSDPJitterObservable(t *testing.T) {
	// The QDR-SDP jitter must be visible as latency spread, and absent
	// from the other transports (§VI-B).
	spread := func(tr Transport) simnet.Duration {
		d := New(ClusterB(), Options{})
		defer d.Close()
		c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.MC.Set("j", []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		var min, max simnet.Duration
		for i := 0; i < 60; i++ {
			start := c.Clock.Now()
			if _, _, _, err := c.MC.Get("j"); err != nil {
				t.Fatal(err)
			}
			el := c.Clock.Now() - start
			if i == 0 || el < min {
				min = el
			}
			if el > max {
				max = el
			}
		}
		return max - min
	}
	sdp := spread(SDP)
	ipoib := spread(IPoIB)
	if sdp < 10*simnet.Microsecond {
		t.Fatalf("SDP spread = %v, want visible jitter", sdp)
	}
	if ipoib > sdp/3 {
		t.Fatalf("IPoIB spread %v not much smaller than SDP %v", ipoib, sdp)
	}
}

func TestUCRSetTooLargeForCache(t *testing.T) {
	// A value that exceeds the server's memory limit travels the full
	// rendezvous path into a scratch buffer and is answered with an
	// error instead of corrupting the cache (§V-B error handling).
	d := New(ClusterB(), Options{MemoryLimit: 1 << 20})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Larger than the whole cache.
	if err := c.MC.Set("huge", make([]byte, 2<<20), 0, 0); err == nil {
		t.Fatal("oversized set should fail")
	}
	// The cache is still healthy.
	if err := c.MC.Set("ok", []byte("fine"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := c.MC.Get("ok")
	if err != nil || string(v) != "fine" {
		t.Fatalf("post-error get = (%q, %v)", v, err)
	}
	if d.Server.Store().CurrItems() != 1 {
		t.Fatalf("CurrItems = %d", d.Server.Store().CurrItems())
	}
}

func TestServerSRQOptionEndToEnd(t *testing.T) {
	d := New(ClusterB(), Options{UseSRQ: true})
	defer d.Close()
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("srq-%d", i)
		if err := c.MC.Set(k, []byte(k), 0, 0); err != nil {
			t.Fatal(err)
		}
		v, _, _, err := c.MC.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("srq get = (%q, %v)", v, err)
		}
	}
	if d.Server.UCRRecvBufferBytes() == 0 {
		t.Fatal("no SRQ buffers accounted")
	}
}
