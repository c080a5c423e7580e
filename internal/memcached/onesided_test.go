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
	if _, displaced, _ := store.OneSidedIndex().Stats(); displaced != 0 {
		t.Fatalf("%d directory entries displaced: those keys read through the AM path", displaced)
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
