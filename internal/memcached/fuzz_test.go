package memcached

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/simnet"
	"repro/internal/ucr"
)

// fuzzStream is the protocol conn's transport for fuzzing: the fuzz
// input is the inbound byte stream, replies are discarded.
type fuzzStream struct {
	io.Reader
	io.Writer
}

// textProtocolSeeds are FuzzTextProtocol's in-code seed inputs; the reply
// transcript golden (transcript_test.go) replays the same list.
var textProtocolSeeds = [][]byte{
	[]byte("get foo\r\n"),
	[]byte("set foo 7 0 3\r\nbar\r\nget foo\r\ngets foo\r\n"),
	[]byte("set foo 0 0 3 noreply\r\nbar\r\ndelete foo noreply\r\n"),
	[]byte("add a 1 2592001 1\r\nx\r\nreplace a 0 0 1\r\ny\r\n"),
	[]byte("append a 0 0 2\r\nzz\r\nprepend a 0 0 2\r\nqq\r\n"),
	[]byte("cas foo 0 0 3 1\r\nbar\r\ncas foo 0 0 3 abc\r\nbar\r\n"),
	[]byte("set n 0 0 20\r\n18446744073709551615\r\nincr n 1\r\ndecr n 2\r\n"),
	[]byte("incr missing 1\r\ndecr n 99999999999999999999\r\n"),
	[]byte("touch foo 100\r\ntouch foo -1\r\n"),
	[]byte("get " + string(bytes.Repeat([]byte("k"), 251)) + "\r\n"),
	[]byte("set k 4294967296 -1 99999999\r\n"),
	[]byte("stats\r\nstats slabs\r\nstats items\r\nstats settings\r\n"),
	[]byte("flush_all\r\nversion\r\nverbosity 1\r\nbogus cmd\r\nquit\r\n"),
	[]byte("set multi word key 0 0 1\r\nx\r\n"),
	[]byte("\r\n\x00\xff\r\nget\r\nset\r\ndelete\r\nincr\r\n"),
}

// FuzzTextProtocol feeds arbitrary bytes to the text-protocol codec
// backed by a real store. The engine must never panic and must leave
// the stream either consumed or cleanly errored — whatever the input.
// (The early oversized-nbytes reject in cmdStore was found by this
// target: a huge declared length made discard() spin the connection.)
func FuzzTextProtocol(f *testing.F) {
	for _, seed := range textProtocolSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound one input's work, not the codec's reach
		}
		store := NewStore(StoreConfig{MemoryLimit: 1 << 20, Stripes: 2})
		pc := NewProtoConn(fuzzStream{bytes.NewReader(data), io.Discard}, store)
		clk := simnet.NewVClock(0)
		for i := 0; i < 1000; i++ {
			quit, err := pc.ServeOne(clk)
			if quit || err != nil {
				return
			}
			clk.Advance(simnet.Microsecond)
		}
	})
}

// FuzzTextCodec round-trips the text codec between its two ends:
// whatever the client encoders emit for a key the client would accept,
// the server's line reader and tokenizer parse back to the same fields,
// and a VALUE block the server emits parses back on the client. raw is
// also fed to the parsers as a line of its own: no input may panic them.
func FuzzTextCodec(f *testing.F) {
	f.Add(uint8(StoreOpSet), "k", uint32(0), int64(0), []byte("v"), uint64(0), false, []byte("VALUE k 0 1"))
	f.Add(uint8(StoreOpCas), "caf\u00a0e", uint32(1<<32-1), int64(-1), []byte("a\r\nb"), uint64(1<<64-1), true, []byte("VALUE k 1 2 3 4"))
	f.Add(uint8(StoreOpAppend), string(bytes.Repeat([]byte("K"), 250)), uint32(7), int64(2592001), []byte{}, uint64(9), false, []byte("set a  b"))
	f.Add(uint8(0), "a\u0085b", uint32(3), int64(1), []byte("END"), uint64(2), true, []byte("  \t "))

	f.Fuzz(func(t *testing.T, op uint8, key string, flags uint32, exptime int64, value []byte, cas uint64, noreply bool, raw []byte) {
		ParseTextValue(raw)
		ParseTextStoreResult(raw)
		parseTextStore(StoreOpCas, raw)
		for tok, rest := nextTextToken(raw); tok != nil; tok, rest = nextTextToken(rest) {
			if len(tok) == 0 || bytes.IndexByte(tok, ' ') >= 0 {
				t.Fatalf("token %q of %q is empty or holds a space", tok, raw)
			}
		}

		// The client's CheckKey: 1..250 bytes, none <= ' ' or DEL.
		if len(key) == 0 || len(key) > 250 || len(value) > 1<<12 {
			return
		}
		for i := 0; i < len(key); i++ {
			if key[i] <= ' ' || key[i] == 0x7f {
				return
			}
		}
		op = StoreOpAdd + op%(StoreOpSet-StoreOpAdd+1)

		var wire []byte
		wire = AppendTextStore(wire, op, key, flags, exptime, value, cas, noreply)
		wire = AppendTextGet(wire, noreply, key, key)
		wire = AppendTextDelete(wire, key)
		wire = AppendTextIncrDecr(wire, noreply, key, cas)
		wire = appendTextValue(wire, []byte(key), flags, value, cas, noreply)
		r := bufio.NewReaderSize(bytes.NewReader(wire), 16) // every line outgrows the buffer
		var spill []byte
		line := func() []byte {
			l, err := ReadTextLine(r, &spill)
			if err != nil {
				t.Fatalf("ReadTextLine: %v (wire %q)", err, wire)
			}
			return l
		}
		block := func() {
			got := make([]byte, len(value)+2)
			if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got[:len(value)], value) || string(got[len(value):]) != "\r\n" {
				t.Fatalf("data block = %q (%v), want %q", got, err, value)
			}
		}

		verb, args := nextTextToken(line())
		c, verdict := parseTextStore(storeOpOf(verb), args)
		if storeOpOf(verb) != op || verdict != textParsed || string(c.key) != key || c.flags != flags ||
			c.exptime != exptime || c.nbytes != len(value) || c.noreply != noreply || (op == StoreOpCas && c.casID != cas) {
			t.Fatalf("store round trip: op %d→%d verdict %d cmd %+v", op, storeOpOf(verb), verdict, c)
		}
		block()

		var f [4][]byte
		wantVerb := "get"
		if noreply {
			wantVerb = "gets"
		}
		if n := textTokens(line(), f[:]); n != 3 || string(f[0]) != wantVerb || string(f[1]) != key || string(f[2]) != key {
			t.Fatalf("get round trip: %d tokens %q", n, f)
		}
		if n := textTokens(line(), f[:]); n != 2 || string(f[0]) != "delete" || string(f[1]) != key {
			t.Fatalf("delete round trip: %d tokens %q", n, f)
		}
		wantVerb = "decr"
		if noreply {
			wantVerb = "incr"
		}
		if n := textTokens(line(), f[:]); n != 3 || string(f[0]) != wantVerb || string(f[1]) != key || string(f[2]) != strconv.FormatUint(cas, 10) {
			t.Fatalf("incr/decr round trip: %d tokens %q", n, f)
		}

		v, ok := ParseTextValue(line())
		if !noreply {
			cas = 0 // a plain "get" reply carries no CAS id
		}
		if !ok || string(v.Key) != key || v.Flags != flags || v.Len != len(value) || v.CAS != cas {
			t.Fatalf("VALUE round trip: %+v ok=%v", v, ok)
		}
		block()
	})
}

// FuzzAMCodecs feeds arbitrary bytes to every active-message header
// decoder the datapath runs on bytes off the wire — the in-place views
// and the multi-get key cursor the server uses, the reply decoders the
// client uses — through the Append* encoders that put them there. No
// input may panic a decoder, and any header a decoder accepts must
// re-encode to exactly the bytes it was read from and decode to the
// same fields again. The first byte selects the codec so one corpus
// covers them all. (The uint16 key-count truncation that motivated
// mcclient's maxMGetKeys chunking was found by this target.)
func FuzzAMCodecs(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add(AppendSetReq([]byte{0x00}, SetReq{ReplyCtr: 7, Flags: 42, Exptime: 2592001, Key: "k01"}))
	f.Add(AppendKeyReq([]byte{0x01}, KeyReq{ReplyCtr: 9, Key: "some-key"}))
	f.Add(AppendNumReq([]byte{0x02}, NumReq{ReplyCtr: 3, Delta: 18446744073709551615, Key: "n0"}))
	f.Add(AppendStoreReq([]byte{0x03}, StoreReq{ReplyCtr: 1, Op: StoreOpCas, Flags: 5, Exptime: -1, CAS: 77, Key: "ck"}))
	mget, _ := AppendMGetReq([]byte{0x04}, 2, 0, []string{"a", "bb", ""})
	f.Add(mget)
	f.Add(appendStatusReply([]byte{0x05}, StatusReply{Status: AMOK, Result: Stored}))
	f.Add(AppendGetReply([]byte{0x06}, GetReply{Status: amMiss, Flags: 1, CAS: 2}))
	f.Add(appendNumReply([]byte{0x07}, NumReply{Status: AMBadValue, Value: 99}))
	f.Add(appendMGetReply([]byte{0x08}, MGetReply{Items: []MGetItem{
		{Key: "a", flags: 1, cas: 2, ValueLen: 3}, {Key: "", flags: 0, cas: 0, ValueLen: 0},
	}}))
	getW, _ := AppendGetReq([]byte{0x09}, 11, 3, "slotted-key")
	f.Add(getW)
	mgetW, _ := AppendMGetReq([]byte{0x0a}, 12, 65536, []string{"x", "yy"})
	f.Add(mgetW)
	f.Add(AppendArmReq([]byte{0x0b}, ArmReq{ReplyCtr: 5, Addr: 1 << 40, RKey: 9, SlotLen: 4096, Slots: 8}))
	f.Add(append([]byte{0x0c}, encodeArmReply(ArmReply{Status: AMOK, OS: OSDesc{
		Enabled: true, Buckets: 1024, Slots: 4, Dir: ucr.WindowDesc{Addr: 4096, RKey: 3, Len: 1 << 16},
	}})...))
	f.Add(appendGetWNotify([]byte{0x0d}, GetWNotify{Status: AMOK, Flags: 6, CAS: 7, ValueLen: 8}))
	f.Add(appendMGetWNotify([]byte{0x0e}, MGetWNotify{Status: AMOK, HdrLen: 20, DataLen: 300}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, b := data[0], data[1:]
		switch sel % 15 {
		case 0:
			if v, err := decodeSetReqView(b); err == nil {
				enc := AppendSetReq(nil, SetReq{ReplyCtr: v.replyCtr, Flags: v.flags, Exptime: v.exptime, Key: string(v.key)})
				sameBytes(t, "SetReq", b, enc)
				if v2, err := decodeSetReqView(enc); err != nil || !reflect.DeepEqual(v, v2) {
					t.Fatalf("SetReq round trip: %+v -> %+v (%v)", v, v2, err)
				}
			}
		case 1, 9:
			slotted := sel%15 == 9
			if v, err := decodeGetReqView(b, slotted); err == nil {
				if slotted != (v.slot != 0) {
					t.Fatalf("GetReq slotted=%v decoded slot %d", slotted, v.slot)
				}
				enc, msg := AppendGetReq(nil, v.replyCtr, v.slot, string(v.key))
				sameBytes(t, "GetReq", b, enc)
				if v2, err := decodeGetReqView(enc, msg == amGetW); err != nil || !reflect.DeepEqual(v, v2) {
					t.Fatalf("GetReq round trip: %+v -> %+v (%v)", v, v2, err)
				}
				// Delete reads the unslotted layout through the KeyReq view.
				if k, err := DecodeKeyReqView(b); !slotted && (err != nil || k.ReplyCtr != v.replyCtr || !bytes.Equal(k.Key, v.key)) {
					t.Fatalf("KeyReq view %+v (%v) disagrees with GetReq view %+v", k, err, v)
				}
			}
		case 2:
			if ctr, delta, key, err := decodeNumReqView(b); err == nil {
				enc := AppendNumReq(nil, NumReq{ReplyCtr: ctr, Delta: delta, Key: string(key)})
				sameBytes(t, "NumReq", b, enc)
				if ctr2, delta2, key2, err := decodeNumReqView(enc); err != nil || ctr2 != ctr || delta2 != delta || !bytes.Equal(key2, key) {
					t.Fatalf("NumReq round trip: (%d, %d, %q) -> (%d, %d, %q) (%v)", ctr, delta, key, ctr2, delta2, key2, err)
				}
			}
		case 3:
			if v, err := decodeStoreReqView(b); err == nil {
				enc := AppendStoreReq(nil, StoreReq{ReplyCtr: v.replyCtr, Op: v.op, Flags: v.flags, Exptime: v.exptime, CAS: v.cas, Key: string(v.key)})
				sameBytes(t, "StoreReq", b, enc)
				if v2, err := decodeStoreReqView(enc); err != nil || !reflect.DeepEqual(v, v2) {
					t.Fatalf("StoreReq round trip: %+v -> %+v (%v)", v, v2, err)
				}
			}
		case 4, 10:
			slotted := sel%15 == 10
			ctr, slot, cur, err := newMGetKeyCursor(b, slotted)
			if err != nil {
				return
			}
			if slotted != (slot != 0) {
				t.Fatalf("MGetReq slotted=%v decoded slot %d", slotted, slot)
			}
			keys := cursorKeys(&cur)
			if len(keys) != cur.n {
				return // truncated batch: the cursor stopped early, as the server does
			}
			enc, msg := AppendMGetReq(nil, ctr, slot, keys)
			sameBytes(t, "MGetReq", b, enc)
			ctr2, slot2, cur2, err := newMGetKeyCursor(enc, msg == amMGetW)
			if keys2 := cursorKeys(&cur2); err != nil || ctr2 != ctr || slot2 != slot || !slices.Equal(keys, keys2) {
				t.Fatalf("MGetReq round trip: (%d, %d, %q) -> (%d, %d, %q) (%v)", ctr, slot, keys, ctr2, slot2, keys2, err)
			}
		case 5:
			roundTrip(t, "StatusReply", b, DecodeStatusReply, appendStatusReply)
		case 6:
			roundTrip(t, "GetReply", b, DecodeGetReply, AppendGetReply)
		case 7:
			roundTrip(t, "NumReply", b, DecodeNumReply, appendNumReply)
		case 8:
			if r, err := DecodeMGetReply(b); err == nil {
				enc := appendMGetReply(nil, r)
				sameBytes(t, "MGetReply", b, enc)
				if r2, err := DecodeMGetReply(enc); err != nil || !slices.Equal(r.Items, r2.Items) {
					t.Fatalf("MGetReply round trip: %+v -> %+v (%v)", r, r2, err)
				}
			}
		case 11:
			roundTrip(t, "ArmReq", b, decodeArmReq, AppendArmReq)
		case 12:
			// Not byte-canonical: a disabled directory's descriptor bytes
			// are ignored, and the enabled flag is any non-zero byte.
			if r, err := DecodeArmReply(b); err == nil {
				if r2, err := DecodeArmReply(encodeArmReply(r)); err != nil || r2 != r {
					t.Fatalf("ArmReply round trip: %+v -> %+v (%v)", r, r2, err)
				}
			}
		case 13:
			roundTrip(t, "GetWNotify", b, DecodeGetWNotify, appendGetWNotify)
		case 14:
			roundTrip(t, "MGetWNotify", b, DecodeMGetWNotify, appendMGetWNotify)
		}
	})
}

// sameBytes fails unless an accepted header re-encodes to the bytes it
// was decoded from (trailing input is not part of the header).
func sameBytes(t *testing.T, what string, b, enc []byte) {
	t.Helper()
	if len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
		t.Fatalf("%s: accepted % x but re-encodes as % x", what, b, enc)
	}
}

// roundTrip checks a fixed-shape header codec: if dec accepts b, enc
// must reproduce the bytes and dec must read the same fields back.
func roundTrip[T comparable](t *testing.T, what string, b []byte, dec func([]byte) (T, error), enc func([]byte, T) []byte) {
	t.Helper()
	r, err := dec(b)
	if err != nil {
		return
	}
	out := enc(nil, r)
	sameBytes(t, what, b, out)
	if r2, err := dec(out); err != nil || r2 != r {
		t.Fatalf("%s round trip: %+v -> %+v (%v)", what, r, r2, err)
	}
}

// appendMGetReply packs a reply header the way the server builds one.
func appendMGetReply(dst []byte, r MGetReply) []byte {
	start := len(dst)
	dst = beginMGetReply(dst)
	for _, it := range r.Items {
		dst = appendMGetReplyItem(dst, []byte(it.Key), it.flags, it.cas, it.ValueLen)
	}
	finishMGetReply(dst, start, len(r.Items))
	return dst
}

// cursorKeys drains a multi-get key cursor.
func cursorKeys(c *mgetKeyCursor) []string {
	var keys []string
	for k, ok := c.next(); ok; k, ok = c.next() {
		keys = append(keys, string(k))
	}
	return keys
}
