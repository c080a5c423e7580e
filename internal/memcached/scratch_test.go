package memcached

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// The text protocol's per-connection staging buffers are reused across
// commands but must not be pinned at a large size by one oversized
// request — retention is capped at stagingMax (64 KB).

// TestProtoConnValueBufferReuseAndCap: pipelined sets reuse one staging
// buffer; an oversized set uses a one-off buffer and leaves the small
// one in place.
func TestProtoConnValueBufferReuseAndCap(t *testing.T) {
	big := stagingMax + 4096 // over the cap, under MaxItemSize
	var in strings.Builder
	for i := 0; i < 4; i++ {
		v := strings.Repeat("x", 100+i)
		fmt.Fprintf(&in, "set k%d 0 0 %d\r\n%s\r\n", i, len(v), v)
	}
	fmt.Fprintf(&in, "set big 0 0 %d\r\n%s\r\n", big, strings.Repeat("y", big))
	fmt.Fprintf(&in, "set after 0 0 5\r\nhello\r\n")

	var out bytes.Buffer
	store := NewStore(StoreConfig{MemoryLimit: 4 << 20, Stripes: 2})
	pc := NewProtoConn(fuzzStream{strings.NewReader(in.String()), &out}, store)
	clk := simnet.NewVClock(0)

	for i := 0; i < 4; i++ {
		if _, err := pc.ServeOne(clk); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if got := cap(pc.valBuf); got == 0 || got > stagingMax {
		t.Fatalf("after small sets: cap(valBuf) = %d, want (0, %d]", got, stagingMax)
	}
	small := cap(pc.valBuf)

	if _, err := pc.ServeOne(clk); err != nil {
		t.Fatalf("big set: %v", err)
	}
	if got := cap(pc.valBuf); got > stagingMax {
		t.Fatalf("after oversized set: cap(valBuf) = %d, want <= %d (one-off not retained)", got, stagingMax)
	}
	if got := cap(pc.valBuf); got != small {
		t.Fatalf("after oversized set: cap(valBuf) = %d, want untouched %d", got, small)
	}

	if _, err := pc.ServeOne(clk); err != nil {
		t.Fatalf("set after big: %v", err)
	}
	if v, _, _, ok := store.Get("after", 0); !ok || string(v) != "hello" {
		t.Fatalf("post-oversized set landed %q, ok=%v", v, ok)
	}
	if !strings.Contains(out.String(), "STORED") {
		t.Fatalf("no STORED in output: %q", out.String())
	}
}

// TestProtoConnReplyBufferCap: a multi-get whose response exceeds
// stagingMax is served from a one-off buffer; the retained reply
// staging buffer never exceeds the cap.
func TestProtoConnReplyBufferCap(t *testing.T) {
	store := NewStore(StoreConfig{MemoryLimit: 4 << 20, Stripes: 2})
	clk := simnet.NewVClock(0)
	val := bytes.Repeat([]byte("z"), 40<<10)
	store.Set("a", 0, 0, val, 0)
	store.Set("b", 0, 0, val, 0)

	var out bytes.Buffer
	in := "get a\r\nget a b\r\nget a\r\n"
	pc := NewProtoConn(fuzzStream{strings.NewReader(in), &out}, store)

	if _, err := pc.ServeOne(clk); err != nil { // 40 KB reply: retained
		t.Fatal(err)
	}
	if got := cap(pc.replyBuf); got == 0 || got > stagingMax {
		t.Fatalf("after small get: cap(replyBuf) = %d, want (0, %d]", got, stagingMax)
	}
	if _, err := pc.ServeOne(clk); err != nil { // 80 KB reply: one-off
		t.Fatal(err)
	}
	if got := cap(pc.replyBuf); got > stagingMax {
		t.Fatalf("after large multi-get: cap(replyBuf) = %d, want <= %d", got, stagingMax)
	}
	if _, err := pc.ServeOne(clk); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(out.Bytes(), []byte("VALUE ")); got != 4 {
		t.Fatalf("VALUE lines = %d, want 4", got)
	}
}
