package ucr

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/simnet"
)

func TestWindowDescRoundtrip(t *testing.T) {
	d := WindowDesc{Addr: 0xdeadbeef, RKey: 42, Len: 4096}
	got, ok := DecodeWindowDesc(d.Encode())
	if !ok || got != d {
		t.Fatalf("roundtrip = %+v ok=%v", got, ok)
	}
	if _, ok := DecodeWindowDesc(make([]byte, 4)); ok {
		t.Fatal("short descriptor decoded")
	}
}

func TestWindowDescRejectsHugeLen(t *testing.T) {
	// A 64-bit length off the wire must not truncate into an int.
	b := WindowDesc{Addr: 0x1000, RKey: 7}.Encode()
	for _, n := range []uint64{1 << 63, ^uint64(0), MaxWindowLen + 1} {
		binary.LittleEndian.PutUint64(b[12:], n)
		if _, ok := DecodeWindowDesc(b); ok {
			t.Fatalf("length %#x decoded", n)
		}
	}
	binary.LittleEndian.PutUint64(b[12:], MaxWindowLen)
	if d, ok := DecodeWindowDesc(b); !ok || d.Len != MaxWindowLen {
		t.Fatalf("boundary length rejected: %+v ok=%v", d, ok)
	}
}

func TestOneSidedPutGet(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)

	// The server side exposes a window; in a real application its
	// descriptor would travel in an AM header. Here we grab it directly.
	winBuf := make([]byte, 1024)
	copy(winBuf[100:], []byte("server-resident"))
	win, err := w.srvRT.CreateWindow(winBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	desc := win.Desc()

	// Get: pull remote bytes with no server software involvement.
	local := make([]byte, 15)
	ctr := w.cliRT.NewCounter()
	if err := ep.Get(w.cliClk, local, desc, 100, ctr); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 1, 0); err != nil {
		t.Fatal(err)
	}
	if string(local) != "server-resident" {
		t.Fatalf("got %q", local)
	}

	// Put: push local bytes into the window.
	payload := []byte("pushed-by-put")
	if err := ep.Put(w.cliClk, payload, desc, 500, ctr); err != nil {
		t.Fatal(err)
	}
	if err := w.cliCtx.WaitCounter(w.cliClk, ctr, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(winBuf[500:500+len(payload)], payload) {
		t.Fatalf("window = %q", winBuf[500:500+len(payload)])
	}
}

func TestOneSidedBounds(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	desc := win.Desc()
	if err := ep.Put(w.cliClk, make([]byte, 32), desc, 40, nil); err != ErrWindowBounds {
		t.Fatalf("overflow err = %v", err)
	}
	if err := ep.Get(w.cliClk, make([]byte, 8), desc, -1, nil); err != ErrWindowBounds {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestOneSidedRequiresReliable(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Unreliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	if err := ep.Put(w.cliClk, make([]byte, 8), win.Desc(), 0, nil); err != ErrNeedReliable {
		t.Fatalf("UD Put err = %v, want ErrNeedReliable", err)
	}
	if err := ep.Get(w.cliClk, make([]byte, 8), win.Desc(), 0, nil); err != ErrNeedReliable {
		t.Fatalf("UD Get err = %v, want ErrNeedReliable", err)
	}
}

func TestOneSidedClosedWindow(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	win, err := w.srvRT.CreateWindow(make([]byte, 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := win.Desc()
	win.Close() // revoked
	ctr := w.cliRT.NewCounter()
	if err := ep.Get(w.cliClk, make([]byte, 8), desc, 0, ctr); err != nil {
		t.Fatal(err)
	}
	// The remote error surfaces as endpoint failure, not a hang.
	err = w.cliCtx.WaitCounter(w.cliClk, ctr, 1, 100*simnet.Microsecond)
	if err == nil {
		t.Fatal("get from closed window should not complete")
	}
	if !ep.Failed() {
		t.Fatal("endpoint should be marked failed after remote error")
	}
}

func TestRegCacheReuse(t *testing.T) {
	// Repeat rendezvous sends of the same buffer register once, so every
	// send after the first skips the pin cost Send charges its caller.
	w := newWorld(t, Config{EagerThreshold: 512})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	data := make([]byte, 16*1024)
	origin := w.cliRT.NewCounter()
	posts := make([]simnet.Duration, 0, 5)
	for i := 1; i <= 5; i++ {
		start := w.cliClk.Now()
		if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), data, origin, 0, nil); err != nil {
			t.Fatal(err)
		}
		posts = append(posts, w.cliClk.Now()-start)
		if err := w.cliCtx.WaitCounter(w.cliClk, origin, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := w.cliRT.RegCacheStats()
	if misses != 1 || hits != 4 {
		t.Fatalf("reg cache hits=%d misses=%d, want 4/1", hits, misses)
	}
	if posts[4] >= posts[0] {
		t.Fatalf("cached rendezvous send (%v) not cheaper than the first, registering one (%v)", posts[4], posts[0])
	}
}

func TestRegCacheEviction(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 512, RegCacheEntries: 2})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	bufs := [][]byte{
		make([]byte, 4096), make([]byte, 4096), make([]byte, 4096),
	}
	origin := w.cliRT.NewCounter()
	n := uint64(0)
	send := func(b []byte) {
		n++
		if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), b, origin, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.cliCtx.WaitCounter(w.cliClk, origin, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	send(bufs[0])
	send(bufs[1])
	send(bufs[2]) // evicts bufs[0]
	send(bufs[0]) // must re-register: a miss, not a stale hit
	hits, misses := w.cliRT.RegCacheStats()
	if misses != 4 {
		t.Fatalf("misses = %d, want 4 (eviction forced re-registration)", misses)
	}
	if hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
}

func TestAtomicFetchAddOverEndpoint(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	buf := make([]byte, 16)
	win, err := w.srvRT.CreateWindow(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	desc := win.Desc()

	for i := uint64(0); i < 5; i++ {
		prior, err := ep.FetchAdd(w.cliClk, desc, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		if prior != i*10 {
			t.Fatalf("prior = %d, want %d", prior, i*10)
		}
	}
	if got := binary.LittleEndian.Uint64(buf[8:]); got != 50 {
		t.Fatalf("cell = %d, want 50", got)
	}
	// Bounds check.
	if _, err := ep.FetchAdd(w.cliClk, desc, 12, 1); err != ErrWindowBounds {
		t.Fatalf("overflow = %v", err)
	}
	// UD endpoints cannot issue atomics.
	ud := w.dial(t, Unreliable)
	if _, err := ud.FetchAdd(w.cliClk, desc, 0, 1); err != ErrNeedReliable {
		t.Fatalf("UD atomic err = %v, want ErrNeedReliable", err)
	}
}

func TestSRQSharedPoolFlatFootprint(t *testing.T) {
	// §VII scalability: with SRQ the server's receive-buffer memory is
	// fixed, however many endpoints connect; per-endpoint windows grow
	// linearly.
	perEndpoint := func(cfg Config, clients int) int64 {
		w := newWorld(t, cfg)
		rc := w.installClientReply()
		_ = rc
		for i := 0; i < clients; i++ {
			ep := w.dial(t, Reliable)
			// Exercise each endpoint once.
			if err := w.request(t, ep, "srq", []byte("x"), 0); err != nil {
				t.Fatal(err)
			}
		}
		return w.srvBufBytes()
	}
	growA := perEndpoint(Config{Credits: 16}, 2)
	growB := perEndpoint(Config{Credits: 16}, 8)
	if growB <= growA {
		t.Fatalf("per-endpoint windows should grow with clients: %d then %d", growA, growB)
	}
	flatA := perEndpoint(Config{Credits: 16, UseSRQ: true}, 2)
	flatB := perEndpoint(Config{Credits: 16, UseSRQ: true}, 8)
	if flatA != flatB {
		t.Fatalf("SRQ footprint should be flat: %d then %d", flatA, flatB)
	}
	if flatB >= growB {
		t.Fatalf("SRQ footprint (%d) should undercut 8 windows (%d)", flatB, growB)
	}
}

func TestSRQTrafficIntegrity(t *testing.T) {
	w := newWorld(t, Config{UseSRQ: true, Credits: 8})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	for i := 0; i < 40; i++ {
		payload := []byte{byte(i), byte(i * 3)}
		if err := w.request(t, ep, "t", payload, 0); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(rc.data, payload) {
			t.Fatalf("op %d corrupted", i)
		}
	}
	// Large messages still rendezvous correctly through the SRQ path.
	big := make([]byte, 64*1024)
	for i := range big {
		big[i] = byte(i)
	}
	if err := w.request(t, ep, "big", big, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.data, big) {
		t.Fatal("large payload corrupted over SRQ")
	}
}
