package memcached

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"testing"

	"repro/internal/simnet"
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
		for tok, rest := NextTextToken(raw); tok != nil; tok, rest = NextTextToken(rest) {
			if len(tok) == 0 || bytes.IndexByte(tok, ' ') >= 0 {
				t.Fatalf("token %q of %q is empty or holds a space", tok, raw)
			}
		}

		// The client's checkKey: 1..250 bytes, none <= ' ' or DEL.
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
		wire = AppendTextValue(wire, key, flags, value, cas, noreply)
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

		verb, args := NextTextToken(line())
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

// FuzzAMCodecs round-trips every active-message header codec: any input
// the decoder accepts must survive encode→decode unchanged, and no
// input may panic a decoder. The first byte selects the codec so one
// corpus covers them all. (The uint16 key-count truncation that
// motivated mcclient's maxMGetKeys chunking was found by this target.)
func FuzzAMCodecs(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add(append([]byte{0x00}, EncodeSetReq(SetReq{ReplyCtr: 7, Flags: 42, Exptime: 2592001, Key: "k01"})...))
	f.Add(append([]byte{0x01}, EncodeKeyReq(KeyReq{ReplyCtr: 9, Key: "some-key"})...))
	f.Add(append([]byte{0x02}, EncodeNumReq(NumReq{ReplyCtr: 3, Delta: 18446744073709551615, Key: "n0"})...))
	f.Add(append([]byte{0x03}, EncodeStoreReq(StoreReq{ReplyCtr: 1, Op: StoreOpCas, Flags: 5, Exptime: -1, CAS: 77, Key: "ck"})...))
	f.Add(append([]byte{0x04}, EncodeMGetReq(MGetReq{ReplyCtr: 2, Keys: []string{"a", "bb", ""}})...))
	f.Add(append([]byte{0x05}, EncodeStatusReply(StatusReply{Status: AMOK, Result: Stored})...))
	f.Add(append([]byte{0x06}, EncodeGetReply(GetReply{Status: AMMiss, Flags: 1, CAS: 2})...))
	f.Add(append([]byte{0x07}, EncodeNumReply(NumReply{Status: AMBadValue, Value: 99})...))
	f.Add(append([]byte{0x08}, EncodeMGetReply(MGetReply{Items: []MGetItem{
		{Key: "a", Flags: 1, CAS: 2, ValueLen: 3}, {Key: "", Flags: 0, CAS: 0, ValueLen: 0},
	}})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, b := data[0], data[1:]
		switch sel % 9 {
		case 0:
			if r, err := DecodeSetReq(b); err == nil {
				r2, err2 := DecodeSetReq(EncodeSetReq(r))
				if err2 != nil || r2 != r {
					t.Fatalf("SetReq round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 1:
			if r, err := DecodeKeyReq(b); err == nil {
				r2, err2 := DecodeKeyReq(EncodeKeyReq(r))
				if err2 != nil || r2 != r {
					t.Fatalf("KeyReq round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 2:
			if r, err := DecodeNumReq(b); err == nil {
				r2, err2 := DecodeNumReq(EncodeNumReq(r))
				if err2 != nil || r2 != r {
					t.Fatalf("NumReq round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 3:
			if r, err := DecodeStoreReq(b); err == nil {
				r2, err2 := DecodeStoreReq(EncodeStoreReq(r))
				if err2 != nil || r2 != r {
					t.Fatalf("StoreReq round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 4:
			if r, err := DecodeMGetReq(b); err == nil {
				r2, err2 := DecodeMGetReq(EncodeMGetReq(r))
				if err2 != nil || !mgetReqEqual(r, r2) {
					t.Fatalf("MGetReq round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 5:
			if r, err := DecodeStatusReply(b); err == nil {
				r2, err2 := DecodeStatusReply(EncodeStatusReply(r))
				if err2 != nil || r2 != r {
					t.Fatalf("StatusReply round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 6:
			if r, err := DecodeGetReply(b); err == nil {
				r2, err2 := DecodeGetReply(EncodeGetReply(r))
				if err2 != nil || r2 != r {
					t.Fatalf("GetReply round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 7:
			if r, err := DecodeNumReply(b); err == nil {
				r2, err2 := DecodeNumReply(EncodeNumReply(r))
				if err2 != nil || r2 != r {
					t.Fatalf("NumReply round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		case 8:
			if r, err := DecodeMGetReply(b); err == nil {
				r2, err2 := DecodeMGetReply(EncodeMGetReply(r))
				if err2 != nil || !mgetReplyEqual(r, r2) {
					t.Fatalf("MGetReply round trip: %+v -> %+v (%v)", r, r2, err2)
				}
			}
		}
	})
}

func mgetReqEqual(a, b MGetReq) bool {
	if a.ReplyCtr != b.ReplyCtr || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
}

func mgetReplyEqual(a, b MGetReply) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}
