package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
)

// newOneSidedClient deploys a cluster with the one-sided GET path armed
// and connects one reliable UCR client.
func newOneSidedClient(t *testing.T, opts Options) (*Deployment, *Client) {
	t.Helper()
	opts.OneSidedGet = true
	d := New(ClusterA(), opts)
	t.Cleanup(d.Close)
	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return d, c
}

// TestOneSidedGetServesHits proves the fast path end to end: with the
// index armed, GET hits come back correct — value, flags, and CAS — and
// are actually served by client-issued RDMA reads, not server AMs.
func TestOneSidedGetServesHits(t *testing.T) {
	_, c := newOneSidedClient(t, Options{})
	paths := c.MC.Transport(0).(*mcclient.UCRTransport).PathStats()

	for _, size := range []int{1, 64, 1024, 4096, 65536} {
		key := fmt.Sprintf("os-key-%d", size)
		val := make([]byte, size)
		for i := range val {
			val[i] = byte(i*13 + size)
		}
		if err := c.MC.Set(key, val, uint32(size), 0); err != nil {
			t.Fatalf("Set %d: %v", size, err)
		}
		got, flags, cas, err := c.MC.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", size, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("size %d: one-sided value mismatch", size)
		}
		if flags != uint32(size) {
			t.Fatalf("size %d: flags %d", size, flags)
		}
		if cas == 0 {
			t.Fatalf("size %d: zero CAS from one-sided read", size)
		}
		// Repeat read exercises the client's cached directory entry.
		if got2, _, cas2, err := c.MC.Get(key); err != nil || !bytes.Equal(got2, val) || cas2 != cas {
			t.Fatalf("size %d: cached-entry reread wrong (err %v)", size, err)
		}
	}
	oneSided, twoSided := paths.By[mcclient.PathOneSided].Hits, paths.By[mcclient.PathAM].Hits
	if oneSided == 0 {
		t.Fatalf("no GET took the one-sided path (two-sided reads: %d)", twoSided)
	}
	if twoSided != 0 {
		t.Fatalf("%d hits fell back to the AM path unexpectedly", twoSided)
	}
}

// TestOneSidedGetSeesMutations checks the seqlock never serves a stale
// pairing: every overwrite must be visible to the next one-sided read,
// with the matching CAS.
func TestOneSidedGetSeesMutations(t *testing.T) {
	_, c := newOneSidedClient(t, Options{})

	key := "os-mutating"
	var lastCAS uint64
	for round := 0; round < 20; round++ {
		val := bytes.Repeat([]byte{byte(round + 1)}, 128+round)
		if err := c.MC.Set(key, val, uint32(round), 0); err != nil {
			t.Fatalf("round %d Set: %v", round, err)
		}
		got, flags, cas, err := c.MC.Get(key)
		if err != nil {
			t.Fatalf("round %d Get: %v", round, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("round %d: stale or torn value", round)
		}
		if flags != uint32(round) {
			t.Fatalf("round %d: stale flags %d", round, flags)
		}
		if cas <= lastCAS {
			t.Fatalf("round %d: CAS went backwards (%d after %d)", round, cas, lastCAS)
		}
		lastCAS = cas

		// Delete → the directory entry dies; the next get must miss.
		if round%5 == 4 {
			if err := c.MC.Delete(key); err != nil {
				t.Fatalf("round %d Delete: %v", round, err)
			}
			if _, _, _, err := c.MC.Get(key); err != mcclient.ErrCacheMiss {
				t.Fatalf("round %d: get after delete: %v", round, err)
			}
		}
	}
}

// TestOneSidedFallbackPaths drives the ladder's AM exits: misses,
// oversized values, and a flushed store all answer correctly.
func TestOneSidedFallbackPaths(t *testing.T) {
	d, c := newOneSidedClient(t, Options{})

	if _, _, _, err := c.MC.Get("never-set"); err != mcclient.ErrCacheMiss {
		t.Fatalf("miss: %v", err)
	}

	// Overflow the directory: more keys than its 512 buckets × 4 slots
	// guarantees displacement, and displaced keys must be served —
	// correctly — by the AM fallback while the rest stay one-sided. A
	// full bucket displaces an older key, so the last key set into each
	// bucket is still one-sided.
	paths := c.MC.Transport(0).(*mcclient.UCRTransport).PathStats()
	n := 512*4 + 64
	lastIn := make(map[int]int) // bucket → the last spill key set into it
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("os-spill-%d", i)
		if err := c.MC.Set(key, []byte(key), uint32(i), 0); err != nil {
			t.Fatalf("Set %s: %v", key, err)
		}
		lastIn[memcached.OSBucketOf(memcached.OSKeyHash(key), 512)] = i
	}
	viaAM := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("os-spill-%d", i)
		am, one := paths.By[mcclient.PathAM].Hits, paths.By[mcclient.PathOneSided].Hits
		got, flags, _, err := c.MC.Get(key)
		if err != nil || string(got) != key || flags != uint32(i) {
			t.Fatalf("spill get %s: %v %q", key, err, got)
		}
		if paths.By[mcclient.PathAM].Hits > am {
			viaAM++
		}
		if lastIn[memcached.OSBucketOf(memcached.OSKeyHash(key), 512)] == i && paths.By[mcclient.PathOneSided].Hits == one {
			t.Fatalf("%s, the last key set into its bucket, was not served one-sided: it was not published over an older key", key)
		}
	}
	if viaAM == 0 {
		t.Fatal("directory overflow displaced nothing; test is vacuous")
	}

	if err := c.MC.Set("os-flushed", []byte("gone"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.MC.Get("os-flushed"); err != nil {
		t.Fatal(err)
	}
	d.Server.Store().FlushAll(c.Clock.Now())
	if _, _, _, err := c.MC.Get("os-flushed"); err != mcclient.ErrCacheMiss {
		t.Fatalf("get after flush: %v", err)
	}
}
