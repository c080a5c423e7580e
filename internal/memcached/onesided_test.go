package memcached_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// TestOneSidedGetAcrossSegments: every slab segment is its own RDMA
// window, so one-sided GETs must hit on items in several segments of
// one page and on a second page, each read at its segment's address.
func TestOneSidedGetAcrossSegments(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.server.EnableOneSided(); err != nil {
		t.Fatal(err)
	}
	node := e.nw.AddNode("cli")
	rt := ucr.New(verbs.NewHCA(node, e.fab, hcaCfg()), e.cm, ucr.Config{})
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	tr, err := mcclient.DialUCR(rt, ctx, e.srvNode, "mc-ucr", mcclient.DefaultBehaviors(), clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Arm(clk, true, false); err != nil {
		t.Fatal(err)
	}

	// 4000 B values: a few chunks per segment, ~230 per page.
	store := e.server.Store()
	segsOnPage := map[int]map[int]bool{}
	var keys []string
	for i := 0; len(segsOnPage) < 2; i++ {
		key := fmt.Sprintf("seg-%d", i)
		val := bytes.Repeat([]byte{byte(i)}, 4000)
		if res, err := tr.Set(clk, key, uint32(i), 0, val); err != nil || res != memcached.Stored {
			t.Fatalf("Set %s = (%v, %v)", key, res, err)
		}
		page, seg, ok := store.ItemPlace([]byte(key))
		if !ok {
			t.Fatalf("%s not stored", key)
		}
		if segsOnPage[page] == nil {
			segsOnPage[page] = map[int]bool{}
		}
		segsOnPage[page][seg] = true
		keys = append(keys, key)
	}
	if len(segsOnPage[0]) < 2 {
		t.Fatalf("page 0 filled from %d segment(s), want >= 2", len(segsOnPage[0]))
	}

	paths := tr.PathStats()
	for i, key := range keys {
		v, flags, _, ok, err := tr.Get(clk, key)
		if err != nil || !ok || flags != uint32(i) || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 4000)) {
			t.Fatalf("Get %s = (%d bytes, flags %d, %v, %v)", key, len(v), flags, ok, err)
		}
	}
	if got := paths.By[mcclient.PathOneSided].Hits; got != uint64(len(keys)) {
		t.Fatalf("one-sided hits = %d of %d GETs (AM hits %d)", got, len(keys), paths.By[mcclient.PathAM].Hits)
	}
}

// TestCloseRevokesOneSidedWindows: Close deregisters the one-sided
// index's windows — the directory and every slab segment it published —
// so none of their rkeys resolves on the server's HCA afterwards. A
// probe learns the windows the way a client does (the AMArm exchange,
// then a read of the directory) and reads each one before and after
// Close, over a connection to a second server on the same HCA, which
// stays up.
func TestCloseRevokesOneSidedWindows(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.server.EnableOneSided(); err != nil {
		t.Fatal(err)
	}
	other := memcached.NewServer(e.nw.Executor(), memcached.ServerConfig{Workers: 1})
	if err := other.ServeUCR(ucr.New(e.srvHCA, e.cm, ucr.Config{}), "mc-ucr-other"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)

	// 4000 B values: a few chunks per segment, so two segments fill fast.
	tr, clk, _ := e.dialUCR(t, "cli")
	segs := map[int]bool{}
	for i := 0; len(segs) < 2; i++ {
		key := fmt.Sprintf("seg-%d", i)
		mustSet(t, tr, clk, key, bytes.Repeat([]byte{byte(i)}, 4000))
		_, seg, ok := e.server.Store().ItemPlace([]byte(key))
		if !ok {
			t.Fatalf("%s not stored", key)
		}
		segs[seg] = true
	}

	rt := ucr.New(verbs.NewHCA(e.nw.AddNode("probe"), e.fab, hcaCfg()), e.cm, ucr.Config{})
	var arm memcached.ArmReply
	rt.RegisterHandler(memcached.AMArmReply, ucr.Handler{Header: func(_ *simnet.VClock, _ *ucr.Endpoint, hdr []byte, _ int, _ ucr.CounterID) []byte {
		arm, _ = memcached.DecodeArmReply(hdr)
		return nil
	}})
	ctx := rt.NewContext()
	t.Cleanup(ctx.Destroy)
	pclk := simnet.NewVClock(clk.Now())
	ep, err := rt.Dial(ctx, e.srvNode, "mc-ucr", ucr.Reliable, pclk, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctr := rt.NewCounter()
	if err := ep.Send(pclk, memcached.AMArm, memcached.AppendArmReq(nil, memcached.ArmReq{ReplyCtr: ctr.ID()}), nil, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitCounter(pclk, ctr, 1, simnet.Millisecond); err != nil || !arm.OS.Enabled {
		t.Fatalf("arm exchange = (%+v, %v), want the directory", arm, err)
	}
	dir := make([]byte, arm.OS.Dir.Len)
	if err := ep.Get(pclk, dir, arm.OS.Dir, 0, ctr); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitCounter(pclk, ctr, 2, simnet.Millisecond); err != nil {
		t.Fatalf("directory read: %v", err)
	}
	windows := []ucr.WindowDesc{arm.OS.Dir}
	seen := map[uint32]bool{}
	for off := 0; off+memcached.OSEntrySize <= len(dir); off += memcached.OSEntrySize {
		if ent := memcached.DecodeOSEntry(dir[off:]); ent.Live() && !seen[ent.RKey] {
			seen[ent.RKey] = true
			windows = append(windows, ucr.WindowDesc{Addr: ent.Addr, RKey: ent.RKey, Len: ent.KeyLen + ent.ValLen})
		}
	}
	if len(windows) < 3 {
		t.Fatalf("directory names %d segment window(s), want >= 2", len(windows)-1)
	}

	// resolves reads all of w on a fresh endpoint to the other server: a
	// revoked rkey fails the read, and the endpoint with it.
	resolves := func(w ucr.WindowDesc) bool {
		t.Helper()
		ep, err := rt.Dial(ctx, e.srvNode, "mc-ucr-other", ucr.Reliable, pclk, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctr := rt.NewCounter()
		defer rt.FreeCounter(ctr)
		if err := ep.Get(pclk, make([]byte, w.Len), w, 0, ctr); err != nil {
			t.Fatal(err)
		}
		return ctx.WaitCounter(pclk, ctr, 1, simnet.Millisecond) == nil
	}
	for _, w := range windows {
		if !resolves(w) {
			t.Fatalf("rkey %d does not resolve before Close", w.RKey)
		}
	}
	e.server.Close()
	for _, w := range windows {
		if resolves(w) {
			t.Errorf("rkey %d still resolves after Close: its window leaked", w.RKey)
		}
	}
}
