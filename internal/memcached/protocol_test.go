package memcached

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

// duplex is an in-memory io.ReadWriter for codec tests.
type duplex struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.in.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.out.Write(p) }

// serveScript feeds the protocol handler a scripted request stream and
// returns everything it wrote.
func serveScript(t *testing.T, store *Store, script string) string {
	t.Helper()
	d := &duplex{in: bytes.NewReader([]byte(script))}
	pc := NewProtoConn(d, store)
	clk := simnet.NewVClock(0)
	for {
		quit, err := pc.ServeOne(clk)
		if err == io.EOF || quit {
			break
		}
		if err != nil {
			t.Fatalf("ServeOne: %v", err)
		}
	}
	return d.out.String()
}

func TestProtocolSetGet(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set greeting 42 0 5\r\nhello\r\n"+
			"get greeting\r\n"+
			"get nothing\r\n")
	want := "STORED\r\n" +
		"VALUE greeting 42 5\r\nhello\r\nEND\r\n" +
		"END\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestProtocolGets(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1\r\nx\r\n"+
			"gets k\r\n")
	if !strings.Contains(out, "VALUE k 0 1 1\r\nx\r\nEND\r\n") {
		t.Fatalf("gets output = %q", out)
	}
}

func TestProtocolMultiGet(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set a 0 0 1\r\n1\r\n"+
			"set b 0 0 1\r\n2\r\n"+
			"get a b c\r\n")
	if !strings.Contains(out, "VALUE a 0 1\r\n1\r\n") || !strings.Contains(out, "VALUE b 0 1\r\n2\r\n") {
		t.Fatalf("multiget output = %q", out)
	}
	if strings.Contains(out, "VALUE c") {
		t.Fatal("missing key produced a VALUE")
	}
}

func TestProtocolAddReplaceCas(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"add k 0 0 2\r\nv1\r\n"+
			"add k 0 0 2\r\nv2\r\n"+
			"replace k 0 0 2\r\nv3\r\n"+
			"cas k 0 0 2 999\r\nv4\r\n"+
			"cas missing 0 0 2 1\r\nv5\r\n")
	want := "STORED\r\nNOT_STORED\r\nSTORED\r\nEXISTS\r\nNOT_FOUND\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestProtocolAppendPrepend(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 3\r\nmid\r\n"+
			"append k 0 0 4\r\n-end\r\n"+
			"prepend k 0 0 6\r\nstart-\r\n"+
			"get k\r\n")
	if !strings.Contains(out, "VALUE k 0 13\r\nstart-mid-end\r\n") {
		t.Fatalf("out = %q", out)
	}
}

func TestProtocolDelete(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1\r\nx\r\n"+
			"delete k\r\n"+
			"delete k\r\n")
	if out != "STORED\r\nDELETED\r\nNOT_FOUND\r\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestProtocolIncrDecr(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set n 0 0 2\r\n10\r\n"+
			"incr n 5\r\n"+
			"decr n 100\r\n"+
			"incr missing 1\r\n"+
			"incr n bogus\r\n")
	want := "STORED\r\n15\r\n0\r\nNOT_FOUND\r\nCLIENT_ERROR invalid numeric delta argument\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestProtocolTouchFlushVersion(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1\r\nx\r\n"+
			"touch k 100\r\n"+
			"touch missing 100\r\n"+
			"version\r\n"+
			"verbosity 1\r\n"+
			"flush_all\r\n"+
			"get k\r\n")
	want := "STORED\r\nTOUCHED\r\nNOT_FOUND\r\nVERSION " + Version + "\r\nOK\r\nOK\r\nEND\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestProtocolNoreply(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1 noreply\r\nx\r\n"+
			"delete k noreply\r\n"+
			"incr k 1 noreply\r\n"+
			"get k\r\n")
	if out != "END\r\n" {
		t.Fatalf("noreply leaked output: %q", out)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"bogus\r\n"+
			"get\r\n"+
			"set k notanumber 0 1\r\nx\r\n"+
			"incr\r\n")
	want := "ERROR\r\nERROR\r\nCLIENT_ERROR bad command line format\r\nERROR\r\n"
	if out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
}

func TestProtocolBadDataChunk(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s, "set k 0 0 1\r\nxQQ") // missing \r\n terminator
	if !strings.Contains(out, "CLIENT_ERROR bad data chunk") {
		t.Fatalf("out = %q", out)
	}
}

func TestProtocolQuit(t *testing.T) {
	s := newTestStore()
	d := &duplex{in: bytes.NewReader([]byte("quit\r\nset k 0 0 1\r\nx\r\n"))}
	pc := NewProtoConn(d, s)
	quit, err := pc.ServeOne(simnet.NewVClock(0))
	if err != nil || !quit {
		t.Fatalf("quit = (%v, %v)", quit, err)
	}
	if s.Stats().CurrItems != 0 {
		t.Fatal("command after quit executed")
	}
}

func TestProtocolStats(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1\r\nx\r\n"+
			"get k\r\n"+
			"stats\r\n")
	if !strings.Contains(out, "STAT cmd_get 1\r\n") ||
		!strings.Contains(out, "STAT cmd_set 1\r\n") ||
		!strings.Contains(out, "STAT get_hits 1\r\n") ||
		!strings.Contains(out, "STAT curr_items 1\r\n") {
		t.Fatalf("stats output = %q", out)
	}
	if !strings.HasSuffix(out, "END\r\n") {
		t.Fatal("stats not terminated")
	}
}

func TestProtocolLargeValue(t *testing.T) {
	s := newTestStore()
	big := strings.Repeat("z", 100_000)
	out := serveScript(t, s,
		"set big 0 0 100000\r\n"+big+"\r\n"+
			"get big\r\n")
	if !strings.Contains(out, "VALUE big 0 100000\r\n"+big+"\r\n") {
		t.Fatal("large value mangled")
	}
}

func TestProtocolBinaryValue(t *testing.T) {
	s := newTestStore()
	val := []byte{0, 1, 2, '\r', '\n', 255, 254}
	script := append([]byte("set bin 0 0 7\r\n"), val...)
	script = append(script, []byte("\r\nget bin\r\n")...)
	out := serveScript(t, s, string(script))
	if !strings.Contains(out, "VALUE bin 0 7\r\n"+string(val)+"\r\n") {
		t.Fatalf("binary value mangled: %q", out)
	}
}

func TestProtocolStatsSlabs(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set k 0 0 1000\r\n"+strings.Repeat("x", 1000)+"\r\n"+
			"stats slabs\r\n")
	if !strings.Contains(out, ":chunk_size ") ||
		!strings.Contains(out, ":total_pages 1\r\n") ||
		!strings.Contains(out, "STAT active_slabs 1\r\n") ||
		!strings.Contains(out, "STAT total_malloced 1048576\r\n") {
		t.Fatalf("stats slabs = %q", out)
	}
	if !strings.Contains(out, ":used_chunks 1\r\n") {
		t.Fatalf("one stored item should occupy one chunk: %q", out)
	}
}

func TestProtocolStatsItems(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s,
		"set small 0 0 10\r\n"+strings.Repeat("a", 10)+"\r\n"+
			"set large 0 0 5000\r\n"+strings.Repeat("b", 5000)+"\r\n"+
			"stats items\r\n")
	// Two different classes hold one item each.
	hits := strings.Count(out, ":number 1\r\n")
	if hits != 2 {
		t.Fatalf("stats items = %q (want two classes with one item)", out)
	}
}

func TestProtocolStatsSettings(t *testing.T) {
	s := newTestStore()
	out := serveScript(t, s, "stats settings\r\n")
	if !strings.Contains(out, "STAT maxbytes 16777216\r\n") ||
		!strings.Contains(out, "STAT evictions on\r\n") ||
		!strings.Contains(out, "STAT item_size_max 1048576\r\n") {
		t.Fatalf("stats settings = %q", out)
	}
	sM := NewStore(StoreConfig{MemoryLimit: 1 << 20, DisableEvictions: true})
	outM := serveScript(t, sM, "stats settings\r\n")
	if !strings.Contains(outM, "STAT evictions off\r\n") {
		t.Fatalf("-M stats settings = %q", outM)
	}
}

func TestProtocolStatsUnknownSub(t *testing.T) {
	s := newTestStore()
	if out := serveScript(t, s, "stats bogus\r\n"); out != "ERROR\r\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestMGetProtoRoundtrip(t *testing.T) {
	keys := []string{"alpha", "beta", "a-much-longer-key-name"}
	for _, slot := range []int32{0, 5} {
		enc, msg := AppendMGetReq(nil, 77, slot, keys)
		if want := map[bool]uint8{false: amMGet, true: amMGetW}[slot != 0]; msg != want {
			t.Fatalf("slot %d rides AM %#x, want %#x", slot, msg, want)
		}
		ctr, gotSlot, cur, err := newMGetKeyCursor(enc, slot != 0)
		if got := cursorKeys(&cur); err != nil || ctr != 77 || gotSlot != slot || cur.n != 3 || !slices.Equal(got, keys) {
			t.Fatalf("req roundtrip (slot %d) = ctr %d slot %d keys %q, %v", slot, ctr, gotSlot, got, err)
		}
	}
	rep := MGetReply{Items: []MGetItem{
		{Key: "alpha", flags: 1, cas: 10, ValueLen: 100},
		{Key: "beta", flags: 2, cas: 20, ValueLen: 0},
	}}
	got2, err := DecodeMGetReply(appendMGetReply(nil, rep))
	if err != nil || len(got2.Items) != 2 || got2.Items[0] != rep.Items[0] || got2.Items[1] != rep.Items[1] {
		t.Fatalf("reply roundtrip = %+v, %v", got2, err)
	}
	if _, _, _, err := newMGetKeyCursor([]byte{1}, false); err == nil {
		t.Fatal("short mget req decoded")
	}
	if _, err := DecodeMGetReply([]byte{}); err == nil {
		t.Fatal("short mget reply decoded")
	}
}

func TestProtocolModelProperty(t *testing.T) {
	// Property: for random streams of set/add/get/delete over a small
	// keyspace, the full protocol output matches an independently
	// computed expectation from a map model.
	f := func(ops []uint16, blobs [][]byte) bool {
		s := NewStore(StoreConfig{MemoryLimit: 32 << 20})
		model := map[string][]byte{}
		var script, want strings.Builder
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%17)
			var val []byte
			if len(blobs) > 0 {
				val = blobs[i%len(blobs)]
			}
			if len(val) > 500 {
				val = val[:500]
			}
			switch op % 4 {
			case 0: // set
				fmt.Fprintf(&script, "set %s 0 0 %d\r\n%s\r\n", key, len(val), val)
				want.WriteString("STORED\r\n")
				model[key] = append([]byte(nil), val...)
			case 1: // add
				fmt.Fprintf(&script, "add %s 0 0 %d\r\n%s\r\n", key, len(val), val)
				if _, ok := model[key]; ok {
					want.WriteString("NOT_STORED\r\n")
				} else {
					want.WriteString("STORED\r\n")
					model[key] = append([]byte(nil), val...)
				}
			case 2: // get
				fmt.Fprintf(&script, "get %s\r\n", key)
				if v, ok := model[key]; ok {
					fmt.Fprintf(&want, "VALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(v), v)
				} else {
					want.WriteString("END\r\n")
				}
			case 3: // delete
				fmt.Fprintf(&script, "delete %s\r\n", key)
				if _, ok := model[key]; ok {
					want.WriteString("DELETED\r\n")
					delete(model, key)
				} else {
					want.WriteString("NOT_FOUND\r\n")
				}
			}
		}
		got := serveScript(t, s, script.String())
		return got == want.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
