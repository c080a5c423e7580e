package mcclient

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/memcached"
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

// raceTransport is a fakeTransport that is safe for concurrent use, so
// ejection can be exercised from several goroutines under -race: the
// transport is guarded here, and the client's pool state (the ring) must
// be guarded by the client itself.
type raceTransport struct {
	name string
	mu   sync.Mutex
	st   map[string][]byte
	dead bool
}

func (r *raceTransport) setDead(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dead = v
}

func (r *raceTransport) Name() string { return r.name }

func (r *raceTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return 0, ErrServerDown
	}
	v := make([]byte, len(value))
	copy(v, value)
	r.st[key] = v
	return memcached.Stored, nil
}

func (r *raceTransport) StoreOp(*simnet.VClock, uint8, string, uint32, int64, []byte, uint64) (memcached.StoreResult, error) {
	return memcached.NotStored, nil
}

func (r *raceTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return nil, 0, 0, false, ErrServerDown
	}
	v, ok := r.st[key]
	return v, 0, 0, ok, nil
}

func (r *raceTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return nil, ErrServerDown
	}
	out := map[string][]byte{}
	for _, k := range keys {
		if v, ok := r.st[k]; ok {
			out[k] = v
		}
	}
	return out, nil
}

func (r *raceTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return false, ErrServerDown
	}
	_, ok := r.st[key]
	delete(r.st, key)
	return ok, nil
}

func (r *raceTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	return 0, false, false, nil
}

func (r *raceTransport) Close() {}

// TestConcurrentEjection hammers Get from several goroutines while a
// server dies mid-stream: every goroutine that hits the dead server
// races to eject it and rebuild the ring. Run under -race this covers
// the failMu guarding of the ring against concurrent readers
// (ServerFor, Ejected, LiveServers) and writers (eject).
func TestConcurrentEjection(t *testing.T) {
	const n = 4
	rts := make([]*raceTransport, n)
	trs := make([]Transport, n)
	for i := range rts {
		rts[i] = &raceTransport{name: fmt.Sprintf("server%d", i), st: map[string][]byte{}}
		trs[i] = rts[i]
	}
	b := DefaultBehaviors()
	b.AutoEject = true
	c, err := New(newTestClock(), b, trs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", (g*37+i)%200)
				_, _, _, err := c.Get(key)
				if err != nil && err != ErrCacheMiss {
					t.Errorf("Get(%s) = %v", key, err)
					return
				}
				// Monitoring reads race the eject writers.
				c.ServerFor(key)
				c.Ejected()
				c.LiveServers()
			}
		}(g)
	}
	close(start)
	rts[1].setDead(true)
	wg.Wait()

	for _, idx := range c.Ejected() {
		if idx != 1 {
			t.Fatalf("ejected healthy server %d", idx)
		}
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
	before := c.Clock().Now()
	if err := c.Set(key, []byte("v"), 0, 0); err != nil {
		t.Fatalf("Set with retry+eject = %v", err)
	}
	// 1 try + 2 retries against the dead owner before ejecting.
	if fakes[1].calls != 3 {
		t.Fatalf("dead server saw %d calls, want 3", fakes[1].calls)
	}
	// Backoff doubles: 100 µs + 200 µs of virtual time.
	if advanced := c.Clock().Now() - before; advanced < 300*simnet.Microsecond {
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
