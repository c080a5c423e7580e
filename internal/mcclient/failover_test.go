package mcclient

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

func newEjectClient(t *testing.T, n int) (*Client, []*fakeTransport) {
	t.Helper()
	fakes := make([]*fakeTransport, n)
	trs := make([]Transport, n)
	for i := range fakes {
		fakes[i] = newFake(fmt.Sprintf("server%d", i))
		trs[i] = fakes[i]
	}
	b := DefaultBehaviors()
	b.AutoEject = true
	c, err := New(newTestClock(), b, trs)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

func TestAutoEjectRehashes(t *testing.T) {
	// Whichever server of the pool dies, the op ejects it and lands on a
	// survivor.
	for victim := 0; victim < 4; victim++ {
		t.Run(fmt.Sprint(victim), func(t *testing.T) {
			c, fakes := newEjectClient(t, 4)
			// Find a key owned by the victim, then kill it.
			var key string
			for i := 0; ; i++ {
				key = fmt.Sprintf("probe-%d", i)
				if c.ServerFor(key) == victim {
					break
				}
			}
			fakes[victim].broken = true
			// The op transparently ejects and lands on a survivor.
			if err := c.Set(key, []byte("v"), 0, 0); err != nil {
				t.Fatalf("Set with auto-eject = %v", err)
			}
			if got := c.Ejected(); len(got) != 1 || got[0] != victim {
				t.Fatalf("Ejected = %v", got)
			}
			if c.LiveServers() != 3 {
				t.Fatalf("LiveServers = %d", c.LiveServers())
			}
			// The key now consistently maps to a live server and reads back.
			if idx := c.ServerFor(key); idx == victim || idx < 0 {
				t.Fatalf("key still maps to dead server: %d", idx)
			}
			v, _, _, err := c.Get(key)
			if err != nil || string(v) != "v" {
				t.Fatalf("Get after eject = (%q, %v)", v, err)
			}
		})
	}
}

func TestAutoEjectDisabledPropagatesError(t *testing.T) {
	c, fakes := newFakeClient(t, 3) // AutoEject off
	for _, f := range fakes {
		f.broken = true
	}
	if err := c.Set("k", []byte("v"), 0, 0); err != ErrServerDown {
		t.Fatalf("err = %v, want ErrServerDown", err)
	}
	if len(c.Ejected()) != 0 {
		t.Fatal("ejection happened with AutoEject disabled")
	}
}

func TestAutoEjectAllDead(t *testing.T) {
	c, fakes := newEjectClient(t, 3)
	for _, f := range fakes {
		f.broken = true
	}
	err := c.Set("k", []byte("v"), 0, 0)
	if err != ErrNoServers && err != ErrServerDown {
		t.Fatalf("err = %v, want pool-exhausted error", err)
	}
	if c.LiveServers() != 0 {
		t.Fatalf("LiveServers = %d, want 0", c.LiveServers())
	}
}

func TestAutoEjectKetamaMinimalMovement(t *testing.T) {
	// Ejecting one server must leave most other keys on their original
	// owners.
	c, fakes := newEjectClient(t, 5)
	before := map[string]int{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = c.ServerFor(k)
	}
	fakes[1].broken = true
	// Trigger ejection with a key owned by server 1.
	for i := 0; ; i++ {
		k := fmt.Sprintf("trigger-%d", i)
		if c.ServerFor(k) == 1 {
			if err := c.Set(k, []byte("v"), 0, 0); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	moved := 0
	for k, owner := range before {
		if owner == 1 {
			continue // must move
		}
		if c.ServerFor(k) != owner {
			moved++
		}
	}
	if float64(moved)/float64(len(before)) > 0.05 {
		t.Fatalf("ketama ejection moved %d/%d unaffected keys", moved, len(before))
	}
}

func TestGetMultiWithEjection(t *testing.T) {
	c, fakes := newEjectClient(t, 3)
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%d", i)
		if err := c.Set(keys[i], []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	fakes[0].broken = true
	got, err := c.GetMulti(keys)
	if err != nil {
		t.Fatalf("GetMulti with ejection = %v", err)
	}
	// Keys that lived only on the dead server are lost (cache semantics:
	// misses, not errors); the rest must be present.
	if len(got) == 0 {
		t.Fatal("all keys lost")
	}
	if len(c.Ejected()) != 1 {
		t.Fatalf("Ejected = %v", c.Ejected())
	}
}

// TestGetMultiEjectionObservesOnce: the eject-and-refetch of a dead
// owner's group goes through the same call, which returns each requested
// key exactly once, with its value — the dead owner's keys were stored
// on the survivors too, so none is lost to the ejection.
func TestGetMultiEjectionObservesOnce(t *testing.T) {
	c, fakes := newEjectClient(t, 3)
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%d", i)
		for _, f := range fakes {
			f.store[keys[i]] = fakeItem{value: []byte("v-" + keys[i])}
		}
	}
	fakes[0].broken = true
	got, err := c.GetMulti(keys)
	if err != nil {
		t.Fatalf("GetMulti with ejection = %v", err)
	}
	if len(c.Ejected()) != 1 {
		t.Fatalf("Ejected = %v: the refetch was not exercised", c.Ejected())
	}
	for _, k := range keys {
		if string(got[k]) != "v-"+k {
			t.Errorf("key %s = %q, want %q", k, got[k], "v-"+k)
		}
	}
	if len(got) != len(keys) {
		t.Errorf("%d keys returned, %d requested", len(got), len(keys))
	}
}

// TestConcurrentEjection interleaves 8 logical readers round-robin on
// one goroutine while server 1 dies mid-run: a reader whose Get lands on
// the dead server ejects it and re-hashes, and between ops every reader
// reads the pool (ServerFor, Ejected, LiveServers). A Client is
// single-goroutine, so the interleaving, not a lock, is what runs here:
// the dead server leaves the pool and no healthy one does.
func TestConcurrentEjection(t *testing.T) {
	const n, readers, rounds, keys = 4, 8, 200, 200
	c, fakes := newEjectClient(t, n)
	for i := 0; i < keys; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds; i++ {
		if i == rounds/2 {
			fakes[1].broken = true
		}
		for g := 0; g < readers; g++ {
			key := fmt.Sprintf("key-%d", (g*37+i)%keys)
			if _, _, _, err := c.Get(key); err != nil && err != ErrCacheMiss {
				t.Fatalf("reader %d: Get(%s) = %v", g, key, err)
			}
			c.ServerFor(key)
			c.Ejected()
			c.LiveServers()
		}
	}

	ejected := c.Ejected()
	if len(ejected) != 1 || ejected[0] != 1 {
		t.Fatalf("ejected %v, want only the dead server 1", ejected)
	}
	if c.LiveServers() < n-1 {
		t.Fatalf("LiveServers = %d", c.LiveServers())
	}
}

// TestRetryBackoffEjectsDeadServer: with Retries set, a dead owner is
// retried with exponential virtual-time backoff before the eject path
// fires; the key then re-hashes to a survivor.
func TestRetryBackoffEjectsDeadServer(t *testing.T) {
	c, fakes := newEjectClient(t, 3)
	c.behaviors.Retries = 2
	c.behaviors.RetryBackoff = 100 * simnet.Microsecond

	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("probe-%d", i)
		if c.ServerFor(key) == 1 {
			break
		}
	}
	fakes[1].broken = true
	before := c.clk.Now()
	if err := c.Set(key, []byte("v"), 0, 0); err != nil {
		t.Fatalf("Set with retry+eject = %v", err)
	}
	// 1 try + 2 retries against the dead owner before ejecting.
	if fakes[1].calls != 3 {
		t.Fatalf("dead server saw %d calls, want 3", fakes[1].calls)
	}
	// Backoff doubles: 100 µs + 200 µs of virtual time.
	if advanced := c.clk.Now() - before; advanced < 300*simnet.Microsecond {
		t.Fatalf("clock advanced %v, want >= 300 µs of backoff", advanced)
	}
	if got := c.Ejected(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Ejected = %v", got)
	}
	if v, _, _, err := c.Get(key); err != nil || string(v) != "v" {
		t.Fatalf("Get after retry+eject = (%q, %v)", v, err)
	}
}

// TestRetryHealsTransientFault: a fault that clears within the backoff
// window must not eject the server.
func TestRetryHealsTransientFault(t *testing.T) {
	c, fakes := newEjectClient(t, 3)
	c.behaviors.Retries = 3
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("probe-%d", i)
		if c.ServerFor(key) == 0 {
			break
		}
	}
	fakes[0].broken = true
	fakes[0].healAfter = 2 // two failures, then recover
	if err := c.Set(key, []byte("v"), 0, 0); err != nil {
		t.Fatalf("Set through transient fault = %v", err)
	}
	if len(c.Ejected()) != 0 {
		t.Fatalf("transient fault ejected a healthy server: %v", c.Ejected())
	}
}
