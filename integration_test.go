package repro

// End-to-end integration tests across the whole stack, driving the same
// flows the examples narrate: one deployment, mixed transports on one
// cache, the motivating cache-aside workload, pool
// sharding with failover, and a smoke re-run of one evaluation panel.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

func TestEndToEndSystemLifecycle(t *testing.T) {
	d := cluster.New(cluster.ClusterB(), cluster.Options{ServerWorkers: 4})
	defer d.Close()

	ucrCli, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer ucrCli.Close()
	sdpCli, err := d.NewClient(cluster.SDP, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer sdpCli.Close()

	// The full value-size spectrum through both frontends of one cache.
	for _, size := range []int{1, 100, 8192, 262144} {
		key := fmt.Sprintf("e2e-%d", size)
		val := bytes.Repeat([]byte{byte(size % 251)}, size)
		if err := ucrCli.MC.Set(key, val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", size, err)
		}
		got, _, _, err := sdpCli.MC.Get(key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("cross-transport read %d: %d bytes, %v", size, len(got), err)
		}
	}

	// The UCR path must be faster, end to end.
	probe := func(c *cluster.Client) simnet.Duration {
		start := c.Clock.Now()
		for i := 0; i < 20; i++ {
			if _, _, _, err := c.MC.Get("e2e-100"); err != nil {
				t.Fatal(err)
			}
		}
		return (c.Clock.Now() - start) / 20
	}
	ucrLat, sdpLat := probe(ucrCli), probe(sdpCli)
	if ucrLat >= sdpLat {
		t.Fatalf("UCR (%v) not faster than SDP (%v)", ucrLat, sdpLat)
	}

	if stats := d.Server.Store().Stats(); stats.GetHits == 0 || stats.CmdSet == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEndToEndCacheAsideWorkload(t *testing.T) {
	// The dbcache example's flow, asserted: a read-mostly workload with
	// cache-aside fills ends up dominated by hits.
	d := cluster.New(cluster.ClusterA(), cluster.Options{})
	defer d.Close()
	proxy, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rng := simnet.NewRand(7)
	hits, misses := 0, 0
	for i := 0; i < 800; i++ {
		key := fmt.Sprintf("hot-%d", rng.Intn(24))
		if _, _, _, err := proxy.MC.Get(key); err == nil {
			hits++
			continue
		} else if err != mcclient.ErrCacheMiss {
			t.Fatal(err)
		}
		misses++
		proxy.Clock.Advance(2 * simnet.Millisecond) // the "database"
		if err := proxy.MC.Set(key, []byte("row"), 0, 300); err != nil {
			t.Fatal(err)
		}
	}
	if misses != 24 {
		t.Fatalf("misses = %d, want one per hot key", misses)
	}
	if hits != 800-24 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestEndToEndShardingWithFailover(t *testing.T) {
	b := mcclient.DefaultBehaviors()
	b.AutoEject = true
	b.OpTimeout = 200 * simnet.Microsecond
	d := cluster.New(cluster.ClusterB(), cluster.Options{Servers: 3})
	defer d.Close()
	c, err := d.NewClient(cluster.UCRIB, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 120; i++ {
		if err := c.MC.Set(fmt.Sprintf("s-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range d.Servers {
		if srv.Store().Stats().CurrItems == 0 {
			t.Fatal("a shard received no items")
		}
	}
	d.ServerNodes[0].Fail()
	for i := 0; i < 120; i++ {
		if err := c.MC.Set(fmt.Sprintf("s-%d", i), []byte("v2"), 0, 0); err != nil {
			t.Fatalf("post-failure set: %v", err)
		}
	}
	if c.MC.LiveServers() != 2 {
		t.Fatalf("LiveServers = %d", c.MC.LiveServers())
	}
}

func TestEndToEndFigureSmoke(t *testing.T) {
	// One full evaluation panel end to end, asserting the paper's
	// ordering on every point: UCR < every sockets path.
	spec, ok := bench.FigureByID("fig4c")
	if !ok {
		t.Fatal("fig4c missing")
	}
	fig, err := spec.Run(bench.RunConfig{OpsPerPoint: 8, KeySpace: 4})
	if err != nil {
		t.Fatal(err)
	}
	ucr := fig.Series["UCR-IB"]
	for _, base := range []string{"IPoIB", "SDP"} {
		vals := fig.Series[base]
		for i := range ucr {
			if ucr[i] >= vals[i] {
				t.Errorf("%s @%s: UCR %.2f >= %s %.2f", fig.ID, fig.XTicks[i], ucr[i], base, vals[i])
			}
		}
	}
}

func TestEndToEndMemslapStyleDistribution(t *testing.T) {
	// The memslap flow: concurrent clients, mixed workload, and a sane
	// latency distribution (p99 >= p50 >= min; SDP shows spread).
	rec, err := bench.JitterPoint(cluster.ClusterB(), cluster.SDP, 64, 200, bench.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Percentile(99) < rec.Percentile(50) || rec.Percentile(50) < rec.Min() {
		t.Fatalf("distribution not ordered: min %v p50 %v p99 %v", rec.Min(), rec.Percentile(50), rec.Percentile(99))
	}
	if rec.Jitter() < 10 {
		t.Fatalf("SDP-on-QDR spread = %v us, expected visible jitter", rec.Jitter())
	}
}
