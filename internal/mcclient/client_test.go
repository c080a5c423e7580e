package mcclient

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/memcached"
	"repro/internal/ring"
	"repro/internal/simnet"
)

// fakeTransport is an in-memory Transport for client-logic tests.
type fakeTransport struct {
	name   string
	store  map[string]fakeItem
	calls  int
	broken bool
	closed bool

	// healAfter, when positive, clears broken after that many failed
	// calls — a transient fault for retry tests.
	healAfter int
}

// failing reports whether this call should fail, ticking the transient-
// fault countdown.
func (f *fakeTransport) failing() bool {
	if !f.broken {
		return false
	}
	if f.healAfter > 0 {
		f.healAfter--
		if f.healAfter == 0 {
			f.broken = false
		}
	}
	return true
}

type fakeItem struct {
	value []byte
	flags uint32
	cas   uint64
}

func newFake(name string) *fakeTransport {
	return &fakeTransport{name: name, store: map[string]fakeItem{}}
}

func (f *fakeTransport) Name() string { return f.name }

func (f *fakeTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	f.calls++
	if f.failing() {
		return 0, ErrServerDown
	}
	v := make([]byte, len(value))
	copy(v, value)
	f.store[key] = fakeItem{value: v, flags: flags, cas: uint64(f.calls)}
	return memcached.Stored, nil
}

// StoreOp: the client-logic tests issue no conditional stores.
func (f *fakeTransport) StoreOp(*simnet.VClock, uint8, string, uint32, int64, []byte, uint64) (memcached.StoreResult, error) {
	return memcached.NotStored, nil
}

func (f *fakeTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	f.calls++
	if f.failing() {
		return nil, 0, 0, false, ErrServerDown
	}
	it, ok := f.store[key]
	if !ok {
		return nil, 0, 0, false, nil
	}
	return it.value, it.flags, it.cas, true, nil
}

func (f *fakeTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	f.calls++
	if f.failing() {
		return nil, ErrServerDown
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if it, ok := f.store[k]; ok {
			out[k] = it.value
		}
	}
	return out, nil
}

func (f *fakeTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	f.calls++
	if f.failing() {
		return false, ErrServerDown
	}
	_, ok := f.store[key]
	delete(f.store, key)
	return ok, nil
}

func (f *fakeTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	f.calls++
	it, ok := f.store[key]
	if !ok {
		return 0, false, false, nil
	}
	cur, err := strconv.ParseUint(string(it.value), 10, 64)
	if err != nil {
		return 0, true, true, nil
	}
	if incr {
		cur += delta
	} else if delta > cur {
		cur = 0
	} else {
		cur -= delta
	}
	it.value = []byte(strconv.FormatUint(cur, 10))
	f.store[key] = it
	return cur, true, false, nil
}

func (f *fakeTransport) Close() { f.closed = true }

func newFakeClient(t *testing.T, n int) (*Client, []*fakeTransport) {
	t.Helper()
	fakes := make([]*fakeTransport, n)
	trs := make([]Transport, n)
	for i := range fakes {
		fakes[i] = newFake(fmt.Sprintf("server%d", i))
		trs[i] = fakes[i]
	}
	c, err := New(simnet.NewVClock(0), DefaultBehaviors(), trs)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

// resultTransport answers every store with one result.
type resultTransport struct {
	*fakeTransport
	res memcached.StoreResult
}

func (r resultTransport) Set(*simnet.VClock, string, uint32, int64, []byte) (memcached.StoreResult, error) {
	return r.res, nil
}

func (r resultTransport) StoreOp(*simnet.VClock, uint8, string, uint32, int64, []byte, uint64) (memcached.StoreResult, error) {
	return r.res, nil
}

// TestStoreResultFromError: Set and every conditional store verb report
// the server's result through one error mapping, and StoreResultOf
// recovers it exactly — TooLarge and OOM stay distinct, with no error
// text parsed. A transport failure carries no result.
func TestStoreResultFromError(t *testing.T) {
	v := []byte("v")
	for res := memcached.Stored; res <= memcached.OOM; res++ {
		c, err := New(simnet.NewVClock(0), DefaultBehaviors(), []Transport{resultTransport{newFake("s"), res}})
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct {
			verb string
			err  error
		}{
			{"set", c.Set("k", v, 0, 0)},
			{"add", c.Add("k", v, 0, 0)},
			{"replace", c.Replace("k", v, 0, 0)},
			{"append", c.Append("k", v)},
			{"prepend", c.Prepend("k", v)},
			{"cas", c.Cas("k", v, 0, 0, 7)},
		} {
			if got, ok := StoreResultOf(call.err); !ok || got != res {
				t.Errorf("%s answered %s: error %v recovers (%s, %v)", call.verb, res, call.err, got, ok)
			}
			if server := res == memcached.TooLarge || res == memcached.OOM; errors.Is(call.err, ErrServerError) != server {
				t.Errorf("%s answered %s: errors.Is(%v, ErrServerError) = %v", call.verb, res, call.err, !server)
			}
		}
	}
	if _, ok := StoreResultOf(ErrServerDown); ok {
		t.Error("ErrServerDown recovers a store result")
	}
}

func TestClientNoServers(t *testing.T) {
	if _, err := New(simnet.NewVClock(0), DefaultBehaviors(), nil); err != ErrNoServers {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

// TestNewRefusesRepeatedServerName: the ring holds a name once, so a
// pool that names one server twice would leave one of the two without
// keys while LiveServers still counted both. New refuses it and names
// the server.
func TestNewRefusesRepeatedServerName(t *testing.T) {
	_, err := New(simnet.NewVClock(0), DefaultBehaviors(), []Transport{newFake("srv"), newFake("srv")})
	if err == nil || !strings.Contains(err.Error(), `"srv"`) {
		t.Fatalf("New over two servers named srv = %v, want an error naming srv", err)
	}
}

func TestClientBasicOps(t *testing.T) {
	c, _ := newFakeClient(t, 1)
	if err := c.Set("k", []byte("v"), 3, 0); err != nil {
		t.Fatal(err)
	}
	v, flags, cas, err := c.Get("k")
	if err != nil || string(v) != "v" || flags != 3 || cas == 0 {
		t.Fatalf("Get = (%q,%d,%d,%v)", v, flags, cas, err)
	}
	if _, _, _, err := c.Get("missing"); err != ErrCacheMiss {
		t.Fatalf("miss = %v", err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != ErrCacheMiss {
		t.Fatalf("double delete = %v", err)
	}
	c.Set("n", []byte("41"), 0, 0)
	if v, err := c.Incr("n", 1); err != nil || v != 42 {
		t.Fatalf("Incr = (%d,%v)", v, err)
	}
	if v, err := c.Decr("n", 100); err != nil || v != 0 {
		t.Fatalf("Decr = (%d,%v)", v, err)
	}
	c.Set("s", []byte("abc"), 0, 0)
	if _, err := c.Incr("s", 1); err != ErrBadValue {
		t.Fatalf("Incr non-numeric = %v", err)
	}
	if _, err := c.Incr("gone", 1); err != ErrCacheMiss {
		t.Fatalf("Incr miss = %v", err)
	}
}

func TestClientGetMulti(t *testing.T) {
	c, _ := newFakeClient(t, 3)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if err := c.Set(k, []byte("v-"+k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.GetMulti(append(keys, "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetMulti returned %d entries", len(got))
	}
	for _, k := range keys {
		if string(got[k]) != "v-"+k {
			t.Fatalf("got[%q] = %q", k, got[k])
		}
	}
}

func TestClientDistributionSpread(t *testing.T) {
	// With several servers, keys must spread across all of them — the
	// paper's §II-C point: placement is a client-side hash, no central
	// directory.
	c, fakes := newFakeClient(t, 4)
	for i := 0; i < 400; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range fakes {
		if f.calls == 0 {
			t.Errorf("server %d received nothing", i)
		}
	}
}

func TestClientMappingStable(t *testing.T) {
	c, _ := newFakeClient(t, 5)
	f := func(key string) bool {
		return c.ServerFor(key) == c.ServerFor(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClientSetThenGetSameServer(t *testing.T) {
	// A value set must be retrievable: set and get route identically.
	c, _ := newFakeClient(t, 7)
	f := func(key string, val []byte) bool {
		if CheckKey(key) != nil {
			// Keys the text protocol cannot carry are rejected
			// client-side before routing (ErrBadKey).
			return true
		}
		if err := c.Set(key, val, 0, 0); err != nil {
			return false
		}
		v, _, _, err := c.Get(key)
		if err != nil {
			return false
		}
		return string(v) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKetamaMinimalRemapping(t *testing.T) {
	// Consistent hashing: removing one server reassigns only that
	// server's keys. Compare mappings over 6 vs 5 servers where the
	// first five keep their names.
	names6 := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	r6 := ring.New(0)
	r5 := ring.New(0)
	for i, n := range names6 {
		r6.AddServer(n)
		if i < 5 {
			r5.AddServer(n)
		}
	}
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("object-%d", i)
		a := r6.Lookup(key)
		b := r5.Lookup(key)
		if a == "s5" {
			continue // owned by the removed server: must move
		}
		if a != b {
			moved++
		}
	}
	// Rehashing modulo the pool size would remap ~5/6 of keys; ketama
	// should move only a small fraction of keys that did not belong to
	// the removed server.
	if float64(moved)/float64(total) > 0.05 {
		t.Fatalf("ketama moved %d/%d keys not owned by the removed server", moved, total)
	}
}

func TestClientErrorPropagation(t *testing.T) {
	c, fakes := newFakeClient(t, 1)
	fakes[0].broken = true
	if err := c.Set("k", []byte("v"), 0, 0); err != ErrServerDown {
		t.Fatalf("Set on broken = %v", err)
	}
	if _, _, _, err := c.Get("k"); err != ErrServerDown {
		t.Fatalf("Get on broken = %v", err)
	}
}

func TestClientClose(t *testing.T) {
	c, fakes := newFakeClient(t, 3)
	c.Close()
	for i, f := range fakes {
		if !f.closed {
			t.Fatalf("server %d not closed", i)
		}
	}
}

// newTestClock is a shared helper for failover tests.
func newTestClock() *simnet.VClock { return simnet.NewVClock(0) }
