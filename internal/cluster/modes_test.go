package cluster_test

import (
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/memcheck"
	"repro/internal/simnet"
)

// The composed read-path check: every datapath row of the memcheck mode
// table, under every client driver, must give the SAME client-visible
// results as the default deployment driven blocking — and must have
// served reads by the path it armed. The per-path tests
// (onesided_test.go, wrreply_test.go, connscale_test.go) probe each
// path's own corners; this is where the paths meet one script.

type sop struct {
	kind  string // set get mget cas delete incr
	key   string
	keys  []string
	size  int
	seq   int  // value identity
	stale bool // cas: present a wrong id
}

// composedScript draws the 200-op mix: get hit/miss, mget, set, cas,
// delete and incr over 64 B / 4 KB / 64 KB values.
func composedScript(seed uint64, n int) []sop {
	rng := simnet.NewRand(seed)
	sizes := []int{64, 4096, 64 << 10}
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(12)) }
	sc := []sop{{kind: "set", key: "n0", size: -10}, {kind: "set", key: "n1", size: -7}}
	for i := len(sc); i < n; i++ {
		op := sop{seq: i, size: sizes[rng.Intn(len(sizes))]}
		switch r := rng.Intn(100); {
		case r < 30:
			op.kind, op.key = "set", key()
		case r < 60:
			op.kind, op.key = "get", key()
		case r < 70:
			op.kind = "mget"
			for j := 2 + rng.Intn(4); j > 0; j-- {
				op.keys = append(op.keys, key())
			}
		case r < 80:
			op.kind, op.key, op.stale = "cas", key(), rng.Intn(3) == 0
		case r < 90:
			op.kind, op.key = "delete", key()
		default:
			op.kind, op.key = "incr", fmt.Sprintf("n%d", rng.Intn(3)) // n2 never exists
		}
		sc = append(sc, op)
	}
	return sc
}

// value builds op's value: position-encoded bytes, so a reply landing
// in the wrong slot or torn mid-write changes the checksum. Negative
// sizes are the counters' numeric seeds.
func (op sop) value() []byte {
	if op.size < 0 {
		return []byte(fmt.Sprint(-op.size))
	}
	v := make([]byte, op.size)
	for i := range v {
		v[i] = byte(i*13 + op.seq)
	}
	return v
}

func fmtGet(v []byte, flags uint32, cas uint64, hit bool, err error) string {
	if errors.Is(err, mcclient.ErrCacheMiss) {
		hit, err = false, nil
	}
	if err != nil || !hit {
		return fmt.Sprintf("hit=false err=%v", err)
	}
	return fmt.Sprintf("hit len=%d crc=%08x flags=%d cas=%d", len(v), crc32.ChecksumIEEE(v), flags, cas)
}

// blocking runs one op through the client's blocking calls.
func blocking(mc *mcclient.Client, op sop) string {
	switch op.kind {
	case "set":
		return fmt.Sprintf("stored=%v", mc.Set(op.key, op.value(), uint32(op.seq), 0) == nil)
	case "get":
		v, fl, cas, err := mc.Get(op.key)
		return fmtGet(v, fl, cas, err == nil, err)
	case "mget":
		got, err := mc.GetMulti(op.keys)
		line := fmt.Sprintf("err=%v", err)
		for _, k := range op.keys {
			if v, ok := got[k]; ok {
				line += fmt.Sprintf(" %s=%d/%08x", k, len(v), crc32.ChecksumIEEE(v))
			}
		}
		return line
	case "cas":
		_, _, id, err := mc.Get(op.key)
		if op.stale {
			id += 7777
		}
		return fmt.Sprintf("get=%v cas=%v", err, mc.Cas(op.key, op.value(), uint32(op.seq), 0, id))
	case "delete":
		return fmt.Sprintf("deleted=%v", mc.Delete(op.key) == nil)
	default:
		n, err := mc.Incr(op.key, uint64(op.seq))
		return fmt.Sprintf("incr=%d err=%v", n, err)
	}
}

// composedRun plays the script against a fresh deployment under one
// driver and returns the per-op result lines, the deployment (closed: its
// server counters are then safe to read) and the summed client PathStats.
func composedRun(t *testing.T, opts cluster.Options, driver string, script []sop) ([]string, *cluster.Deployment, mcclient.PathStats) {
	t.Helper()
	nclients := 1
	if driver == "sessions" {
		opts.SessionsPerQP = 4
		nclients = 8
	}
	d := cluster.New(cluster.ClusterB(), opts)
	t.Cleanup(d.Close)
	clients := make([]*cluster.Client, nclients)
	for i := range clients {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}

	lines := make([]string, len(script))
	if driver != "pipeline" {
		for i, op := range script {
			lines[i] = blocking(clients[i%nclients].MC, op)
		}
	} else {
		// get/set/delete ride a Pipeline(4) window; the ops the pipeline
		// API lacks settle the window first and run blocking. So does an op
		// on a key with a store still in the window: the pipeline orders
		// requests, not commits — a rendezvous SET commits when the
		// server's RDMA read of the value lands, which a later eager op on
		// the same connection can overtake.
		c := clients[0]
		pl := c.MC.Transport(0).(mcclient.Pipeliner).Pipeline(4)
		var settle []func()
		storing := map[string]bool{}
		for i, op := range script {
			if op.kind == "mget" || op.kind == "cas" || op.kind == "incr" || storing[op.key] {
				if err := pl.Wait(c.Clock); err != nil {
					t.Fatalf("op %d: pipeline wait: %v", i, err)
				}
				clear(storing)
			}
			switch op.kind {
			case "set":
				storing[op.key] = true
				f := pl.StartSet(c.Clock, op.key, uint32(op.seq), 0, op.value())
				settle = append(settle, func() {
					res, err := f.Wait(c.Clock)
					lines[i] = fmt.Sprintf("stored=%v", err == nil && res == memcached.Stored)
				})
			case "get":
				f := pl.StartGet(c.Clock, op.key)
				settle = append(settle, func() { lines[i] = fmtGet(f.Wait(c.Clock)) })
			case "delete":
				f := pl.StartDelete(c.Clock, op.key)
				settle = append(settle, func() {
					ok, err := f.Wait(c.Clock)
					lines[i] = fmt.Sprintf("deleted=%v", err == nil && ok)
				})
			default:
				lines[i] = blocking(c.MC, op)
			}
		}
		if err := pl.Wait(c.Clock); err != nil {
			t.Fatalf("pipeline wait: %v", err)
		}
		for _, fn := range settle {
			fn()
		}
	}

	var stats mcclient.PathStats
	if driver == "sessions" {
		if d.Trunks() != 2 {
			t.Fatalf("Trunks() = %d, want 2 (8 sessions / SessionsPerQP=4)", d.Trunks())
		}
		for i := 0; i < d.Trunks(); i++ {
			stats.Add(d.TrunkMuxes(i)[0].Transport().PathStats())
		}
	} else {
		stats.Add(clients[0].MC.Transport(0).(*mcclient.UCRTransport).PathStats())
	}
	for _, c := range clients {
		c.Close()
	}
	d.Close()
	return lines, d, stats
}

func TestModesComposed(t *testing.T) {
	script := composedScript(20110913, 200)
	want, _, _ := composedRun(t, cluster.Options{}, "blocking", script)

	for i := range memcheck.Modes {
		m := &memcheck.Modes[i]
		if m.Fleet {
			continue // a fleet client is not a cluster.Client: the fleet row runs in memcheck
		}
		// Sessions are their trunk's transport behind a lock: they play the
		// whole script, cas included, and are held to the row's vacuity
		// guards like any other driver.
		for _, driver := range []string{"blocking", "pipeline", "sessions"} {
			t.Run(m.Name+"/"+driver, func(t *testing.T) {
				var opts cluster.Options
				if m.Options != nil {
					m.Options(&opts)
				}
				got, d, stats := composedRun(t, opts, driver, script)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("op %d (%+v):\n  got  %s\n  want %s", i, script[i], got[i], want[i])
					}
				}
				if stats.By[m.Path].Hits == 0 {
					t.Fatalf("no read was served by the path the mode arms (vacuous): %+v", stats)
				}
				if m.Name == "srq" && d.Server.UCRSRQDemux() == 0 {
					t.Fatal("no completion was demuxed off the shared SRQ (vacuous)")
				}
				if m.Name == "wrreply" && d.Server.UCRWriteReplies() == 0 {
					t.Fatal("the server posted no reply as an RDMA write (vacuous)")
				}
				if m.Path == mcclient.PathUD && stats.By[m.Path].Fallbacks == 0 {
					t.Fatal("no oversized value was punted from UD back to RC")
				}
			})
		}
	}
}

// TestSessionIsTrunkTransport pins "a lock, not a second driver": the
// lone session of a trunk and a plain client play the same script on
// fresh deployments, and every op takes the same virtual time to the
// vns — with nothing armed and with every read path armed. Any charge a
// session adds of its own, or any path it is not served by, shows here.
func TestSessionIsTrunkTransport(t *testing.T) {
	script := composedScript(20110913, 200)
	play := func(opts cluster.Options) (lat []simnet.Duration, lines []string) {
		d := cluster.New(cluster.ClusterB(), opts)
		defer d.Close()
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, op := range script {
			t0 := c.Clock.Now()
			lines = append(lines, blocking(c.MC, op))
			lat = append(lat, c.Clock.Now()-t0)
		}
		return lat, lines
	}
	for name, opts := range map[string]cluster.Options{
		"default": {},
		"armed":   {OneSidedGet: true, WriteReplies: true, UDGets: true},
	} {
		plain, plainLines := play(opts)
		opts.SessionsPerQP = 2
		sess, sessLines := play(opts)
		for i := range script {
			if sess[i] != plain[i] || sessLines[i] != plainLines[i] {
				t.Fatalf("%s op %d (%+v): session took %d vns (%s), plain client %d vns (%s)",
					name, i, script[i], sess[i], sessLines[i], plain[i], plainLines[i])
			}
		}
	}
}

// TestSessionObserverTagsOwnPath: the observer's one-sided tag is the
// path of the session's own call, not of the trunk's latest read. Eight
// sessions on two armed trunks take turns through the script; the gets
// their observers saw tagged OneSided must be exactly the reads the
// trunks' one-sided path served.
func TestSessionObserverTagsOwnPath(t *testing.T) {
	d := cluster.New(cluster.ClusterB(), cluster.Options{OneSidedGet: true, SessionsPerQP: 4})
	defer d.Close()
	var tagged uint64
	clients := make([]*cluster.Client, 8)
	for i := range clients {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.MC.SetObserver(func(o mcclient.ObservedOp) {
			if o.OneSided {
				tagged++
			}
		})
		clients[i] = c
	}
	for i, op := range composedScript(20110913, 200) {
		blocking(clients[i%len(clients)].MC, op)
	}
	var served uint64
	for i := 0; i < d.Trunks(); i++ {
		served += d.TrunkMuxes(i)[0].Transport().PathStats().By[mcclient.PathOneSided].Hits
	}
	if served == 0 || tagged != served {
		t.Fatalf("observers tagged %d gets one-sided, the trunks served %d that way", tagged, served)
	}
}

// TestOneArmingExchange pins the dial's wire traffic: a default-Options
// client sends no active message until its first op, and a client with
// every armed path that needs the server's cooperation sends exactly one
// (the AMArm capability exchange) however many it arms.
func TestOneArmingExchange(t *testing.T) {
	for _, tc := range []struct {
		opts cluster.Options
		want uint64
	}{
		{cluster.Options{}, 0},
		{cluster.Options{UDGets: true}, 0},
		{cluster.Options{OneSidedGet: true}, 1},
		{cluster.Options{OneSidedGet: true, WriteReplies: true, UDGets: true}, 1},
	} {
		d := cluster.New(cluster.ClusterB(), tc.opts)
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatal(err)
		}
		ctx := c.MC.Transport(0).(*mcclient.UCRTransport).Endpoint().Context()
		if _, out, _, _, _ := ctx.Stats(); out != tc.want {
			t.Errorf("%+v: dial sent %d active messages, want %d", tc.opts, out, tc.want)
		}
		if err := c.MC.Set("k", []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, out, _, _, _ := ctx.Stats(); out != tc.want+1 {
			t.Errorf("%+v: dial + one set sent %d active messages, want %d", tc.opts, out, tc.want+1)
		}
		c.Close()
		d.Close()
	}
}
