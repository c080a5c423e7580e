package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// TestSRQCreditExhaustionBackpressure: a pipelined window far deeper
// than the shared pool runs the server's SRQ dry mid-burst. The RC
// sender must absorb that as RNR retries (visible on the client HCA's
// retransmit counter), every future must settle in bounded time —
// Stored when a repost won the race, ErrServerDown when the RNR budget
// ran out — and the server itself must come through unharmed: a fresh
// client's blocking workload completes normally afterwards. Exhaustion
// is backpressure plus clean per-op failure, never a hang or a wedged
// server.
func TestSRQCreditExhaustionBackpressure(t *testing.T) {
	p := ClusterB()
	p.UCR.SRQBuffers = 4
	d := New(p, Options{UseSRQ: true})
	defer d.Close()

	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	pr, ok := c.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		t.Fatalf("transport cannot pipeline")
	}
	const n = 48
	pl := pr.Pipeline(16)
	clk := c.Clock
	var sets []*mcclient.SetFuture
	for i := 0; i < n; i++ {
		sets = append(sets, pl.StartSet(clk, fmt.Sprintf("srq%d", i), 0, 0, []byte(fmt.Sprintf("burst-val-%d", i))))
	}
	if err := pl.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("pipeline through starved SRQ: %v", err)
	}
	stored := 0
	for i, f := range sets {
		res, err := f.Wait(clk)
		switch {
		case err == nil && res == memcached.Stored:
			stored++
		case errors.Is(err, mcclient.ErrServerDown):
			// RNR budget exceeded for this send: clean failure.
		default:
			t.Fatalf("set %d = (%v, %v), want Stored or ErrServerDown", i, res, err)
		}
	}
	if rtx := c.Runtime().HCA().Retransmits(); rtx == 0 {
		t.Fatal("SRQBuffers=4 under a 16-deep window never triggered an RNR retry; exhaustion untested")
	}

	// The starved SRQ must not wedge the server: a fresh client's
	// blocking ops (one in flight, never past the pool) all succeed,
	// and whatever the burst stored is intact.
	c2, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatalf("post-burst NewClient: %v", err)
	}
	defer c2.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("post%d", i)
		if err := c2.MC.Set(key, []byte("recovered"), 0, 0); err != nil {
			t.Fatalf("post-burst set %d: %v", i, err)
		}
		if v, _, _, err := c2.MC.Get(key); err != nil || string(v) != "recovered" {
			t.Fatalf("post-burst get %d = (%q, %v)", i, v, err)
		}
	}
	recovered := 0
	for i := 0; i < n; i++ {
		v, _, _, err := c2.MC.Get(fmt.Sprintf("srq%d", i))
		if err == nil && string(v) == fmt.Sprintf("burst-val-%d", i) {
			recovered++
		}
	}
	if recovered < stored {
		t.Fatalf("burst reported %d Stored but only %d readable", stored, recovered)
	}
	if d.Server.UCRSRQDemux() == 0 {
		t.Fatal("no completion was demuxed off the shared SRQ")
	}
}

// TestServerCloseMidBurst: killing the server while a pipelined window
// is outstanding must settle every future in bounded time — success for
// whatever was already served, ErrServerDown for the rest — and a
// subsequent blocking op must fail fast with ErrServerDown, not hang.
func TestServerCloseMidBurst(t *testing.T) {
	d := New(ClusterB(), Options{})
	defer d.Close()

	b := mcclient.DefaultBehaviors()
	b.OpTimeout = 2 * simnet.Millisecond
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	if err := c.MC.Set("warm", []byte("up"), 0, 0); err != nil {
		t.Fatalf("warmup set: %v", err)
	}

	pr := c.MC.Transport(0).(mcclient.Pipeliner)
	pl := pr.Pipeline(8)
	clk := c.Clock
	var futs []*mcclient.SetFuture
	for i := 0; i < 8; i++ {
		futs = append(futs, pl.StartSet(clk, fmt.Sprintf("mid%d", i), 0, 0, []byte("x")))
	}
	d.Server.Close()
	if err := pl.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("pipeline wait after server close: %v", err)
	}
	for i, f := range futs {
		if _, err := f.Wait(clk); err != nil && !errors.Is(err, mcclient.ErrServerDown) {
			t.Fatalf("future %d settled with %v, want nil or ErrServerDown", i, err)
		}
	}
	if err := c.MC.Set("after", []byte("y"), 0, 0); !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("post-close set err = %v, want ErrServerDown", err)
	}
}

// TestUDPartitionRetransmission: a dropped UD datagram is recovered by
// the client-side retransmission timer; a partition spanning the whole
// retransmission window surfaces as a clean ErrServerDown (no hang),
// and after healing the data is still there for a fresh client.
func TestUDPartitionRetransmission(t *testing.T) {
	d := New(ClusterB(), Options{UDGets: true, Faults: LossyFaults(0, 7)})
	defer d.Close()

	b := mcclient.DefaultBehaviors()
	b.OpTimeout = 4 * simnet.Millisecond
	c, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	want := []byte("survives-the-partition")
	if err := c.MC.Set("k", want, 0, 0); err != nil {
		t.Fatalf("set: %v", err)
	}

	if len(d.Injectors) == 0 {
		t.Fatal("no fault injector installed")
	}
	fi := d.Injectors[0] // the IB fabric's injector

	// One lost datagram: the get request vanishes, the per-attempt
	// deadline fires, the retransmission succeeds.
	fi.DropNext(c.Node, d.ServerNode, 1)
	v, _, _, err := c.MC.Get("k")
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("get through one drop = (%q, %v)", v, err)
	}
	ut := clientUCRTransport(t, c)
	ud := &ut.PathStats().By[mcclient.PathUD]
	retx := ud.Retries
	if retx == 0 {
		t.Fatal("dropped UD request did not trigger a retransmission")
	}

	// Partition across the whole retransmission window: every attempt
	// is swallowed; the op must fail cleanly rather than hang.
	fi.Partition(c.Node, d.ServerNode)
	if _, _, _, err := c.MC.Get("k"); !errors.Is(err, mcclient.ErrServerDown) {
		t.Fatalf("partitioned get err = %v, want ErrServerDown", err)
	}
	if ud.Retries <= retx {
		t.Fatalf("no retransmissions attempted into the partition (%d -> %d)", retx, ud.Retries)
	}
	fi.Heal(c.Node, d.ServerNode)

	// The server kept the item; a fresh client reads it post-heal.
	c2, err := d.NewClient(UCRIB, b)
	if err != nil {
		t.Fatalf("post-heal NewClient: %v", err)
	}
	defer c2.Close()
	v, _, _, err = c2.MC.Get("k")
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("post-heal get = (%q, %v)", v, err)
	}
}

// TestConcentratorRaceStress drives every session of two shared RC
// trunks from its own goroutine with a mixed workload (run it with
// -race), on a plain deployment and on one whose trunks armed the
// one-sided and write-reply paths. Each session must observe its own
// writes in order — the concentrator serializes the shared QP but may
// never cross-deliver a sibling's reply.
func TestConcentratorRaceStress(t *testing.T) {
	t.Run("plain", func(t *testing.T) { concentratorRaceStress(t, Options{}) })
	t.Run("armed", func(t *testing.T) {
		// The crossover is forced under the stress values' 11 bytes so
		// their hits ride the write path when the one-sided read punts.
		concentratorRaceStress(t, Options{OneSidedGet: true, WriteReplies: true, WriteReplyEager: 16})
	})
}

func concentratorRaceStress(t *testing.T, opts Options) {
	const k = 4
	opts.SessionsPerQP = k
	d := New(ClusterB(), opts)
	defer d.Close()

	var clients []*Client
	for i := 0; i < 2*k; i++ {
		c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			t.Fatalf("NewClient %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	if trunks, _ := d.TrunkPaths(); trunks != 2 {
		t.Fatalf("%d trunks, want 2", trunks)
	}

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(sess int, c *Client) {
			defer wg.Done()
			last := map[string][]byte{}
			for j := 0; j < 60; j++ {
				key := fmt.Sprintf("s%d-k%d", sess, j%5)
				switch j % 6 {
				case 0, 1, 3:
					val := []byte(fmt.Sprintf("sess%d-op%d", sess, j))
					if err := c.MC.Set(key, val, uint32(sess), 0); err != nil {
						t.Errorf("session %d set %s: %v", sess, key, err)
						return
					}
					last[key] = val
				case 2:
					v, fl, _, err := c.MC.Get(key)
					wantV, wrote := last[key]
					if !wrote {
						if err != mcclient.ErrCacheMiss {
							t.Errorf("session %d get %s (never written) = %v", sess, key, err)
							return
						}
						continue
					}
					if err != nil || !bytes.Equal(v, wantV) || fl != uint32(sess) {
						t.Errorf("session %d get %s = (%q, fl=%d, %v), want (%q, fl=%d) — FIFO broken or cross-delivery",
							sess, key, v, fl, err, wantV, sess)
						return
					}
				case 4:
					keys := []string{
						fmt.Sprintf("s%d-k0", sess),
						fmt.Sprintf("s%d-k1", sess),
					}
					got, err := c.MC.GetMulti(keys)
					if err != nil {
						t.Errorf("session %d mget: %v", sess, err)
						return
					}
					for _, kk := range keys {
						if wantV, wrote := last[kk]; wrote && !bytes.Equal(got[kk], wantV) {
							t.Errorf("session %d mget[%s] = %q, want %q", sess, kk, got[kk], wantV)
							return
						}
					}
				case 5:
					if err := c.MC.Delete(key); err != nil && err != mcclient.ErrCacheMiss {
						t.Errorf("session %d delete %s: %v", sess, key, err)
						return
					}
					delete(last, key)
				}
			}
		}(i, c)
	}
	wg.Wait()
	if opts.OneSidedGet {
		_, stats := d.TrunkPaths()
		if stats.By[mcclient.PathOneSided].Hits+stats.By[mcclient.PathWrite].Hits == 0 {
			t.Fatalf("armed trunks served no read by an armed path (vacuous): %+v", stats)
		}
	}
	for _, c := range clients {
		c.Close()
	}
}
