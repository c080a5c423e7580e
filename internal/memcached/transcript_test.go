package memcached

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// The reply-transcript golden pins every byte the text server writes.
// FuzzTextProtocol discards replies, so a codec rewrite could change an
// answer and still pass it; this test replays the fuzz target's seed
// inputs, its checked-in corpus and a few scripts of its own through a
// ProtoConn and compares the reply stream with
// testdata/text_replies.golden, which was recorded from the string-based
// codec (fmt/strings.Fields/ReadString) before the byte-slice codec
// replaced it. The only inputs allowed to answer differently are listed
// in tokenizerExceptions.
//
//	go test ./internal/memcached -run TestTextReplyTranscript -update-transcript

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/text_replies.golden from the current codec")

const transcriptGolden = "testdata/text_replies.golden"

type transcriptInput struct {
	name string
	in   []byte
}

// transcriptScripts are inputs beyond the fuzz seeds: every verb on its
// hit path, request lines longer than the reader's 16 KB buffer, and the
// whitespace cases the tokenizer change is about.
func transcriptScripts() []transcriptInput {
	var longGet strings.Builder
	longGet.WriteString("set key-0000-padding-padding-pad 5 0 2\r\nhi\r\nset key-1999-padding-padding-pad 0 0 3\r\nbye\r\nget")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&longGet, " key-%04d-padding-padding-pad", i)
	}
	longGet.WriteString("\r\nversion\r\n")
	return []transcriptInput{
		{"script/every-verb-hits", []byte(
			"set a 9 0 2\r\n41\r\nadd a 0 0 1\r\nx\r\nadd b 1 0 1\r\ny\r\nreplace b 2 0 2\r\nyy\r\n" +
				"replace ghost 0 0 1\r\nz\r\nappend b 0 0 1\r\n!\r\nprepend b 0 0 1\r\n?\r\nappend ghost 0 0 1\r\nq\r\n" +
				"gets a b ghost\r\ncas a 3 0 2 1\r\n99\r\ncas a 3 0 2 1\r\n98\r\ncas ghost 0 0 1 1\r\nx\r\n" +
				"incr a 1\r\ndecr a 50\r\ngets a\r\ntouch a 100\r\ntouch ghost 1\r\n" +
				"delete b\r\ndelete b\r\nget a b\r\nflush_all\r\nget a\r\nstats\r\nquit\r\nget a\r\n")},
		{"script/repeated-spaces", []byte("set  a  1  0  1 \r\nx\r\n get  a \r\ndelete a  noreply\r\nget a\r\n")},
		{"script/trailing-cr-run", []byte("set a 0 0 1\r\r\nx\r\nget a\r\r\r\n")},
		{"script/bare-newline", []byte("set a 0 0 1\nx\r\nget a\nversion\n")},
		{"script/long-request-line", []byte(longGet.String())},
		{"script/long-line-no-newline", bytes.Repeat([]byte("x"), 40<<10)},
		{"script/long-unknown-command", append(bytes.Repeat([]byte("y"), 20<<10), "\r\nversion\r\n"...)},
		{"script/value-spans-buffer", []byte("set big 0 0 40000\r\n" + strings.Repeat("v", 40000) + "\r\nget big\r\n")},
		{"space/nbsp-key", []byte("set caf\u00a0e 0 0 1\r\nx\r\ngets caf\u00a0e\r\nversion\r\n")},
		{"space/nel-key", []byte("set a\u0085b 0 0 1\r\nx\r\ngets a\u0085b\r\ndelete a\u0085b\r\n")},
		{"space/tab-separated", []byte("set\ta\t0\t0\t1\r\nx\r\nget\ta\r\nversion\r\n")},
		{"space/vt-ff-in-key", []byte("get a\vb\r\nget a\fb\r\ndelete a\vb\r\n")},
		{"space/interior-cr", []byte("get a\rb\r\nversion\r\n")},
	}
}

// tokenizerExceptions lists the inputs whose replies differ from the
// recorded transcript on purpose, with the reply they must produce now.
// All of them carry whitespace other than ASCII space inside a command
// line: strings.Fields split on it, memcached 1.4.5's tokenize_command
// (and the byte tokenizer) does not, so such bytes are part of the token.
var tokenizerExceptions = map[string]string{
	// One key, stored and served — not two keys and a desynced stream.
	"space/nbsp-key": "STORED\r\nVALUE caf\u00a0e 0 1 1\r\nx\r\nEND\r\nVERSION " + Version + "\r\n",
	"space/nel-key":  "STORED\r\nVALUE a\u0085b 0 1 1\r\nx\r\nEND\r\nDELETED\r\n",
	// A tab does not separate tokens: the whole line is one unknown verb,
	// and the data block that follows is parsed as a command.
	"space/tab-separated": "ERROR\r\nERROR\r\nERROR\r\nVERSION " + Version + "\r\n",
}

// transcriptInputs gathers the seeds, the corpus and the scripts, in a
// fixed order.
func transcriptInputs(t *testing.T) []transcriptInput {
	t.Helper()
	var ins []transcriptInput
	for i, seed := range textProtocolSeeds {
		ins = append(ins, transcriptInput{fmt.Sprintf("seed/%02d", i), seed})
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzTextProtocol/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok2 := strings.CutPrefix(lit, "[]byte(")
		lit, ok3 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || !ok3 || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file (%v)", f, err)
		}
		ins = append(ins, transcriptInput{"corpus/" + filepath.Base(f), []byte(data)})
	}
	return append(ins, transcriptScripts()...)
}

// transcribe serves in the way FuzzTextProtocol does (fresh 1 MB store,
// 1 µs between commands) and returns the reply bytes and how the
// connection ended.
func transcribe(in []byte) (reply, end string) {
	var out bytes.Buffer
	store := NewStore(StoreConfig{MemoryLimit: 1 << 20, Stripes: 2})
	pc := NewProtoConn(fuzzStream{bytes.NewReader(in), &out}, store)
	clk := simnet.NewVClock(0)
	for i := 0; i < 1000; i++ {
		quit, err := pc.ServeOne(clk)
		if quit {
			return out.String(), "quit"
		}
		if err != nil {
			return out.String(), err.Error()
		}
		clk.Advance(simnet.Microsecond)
	}
	return out.String(), "1000 commands"
}

// digestLong keeps the golden file readable: a reply past 1 KB is
// recorded as its length and SHA-256.
func digestLong(reply string) string {
	if len(reply) <= 1024 {
		return reply
	}
	return fmt.Sprintf("%d bytes, sha256 %x", len(reply), sha256.Sum256([]byte(reply)))
}

func TestTextReplyTranscript(t *testing.T) {
	ins := transcriptInputs(t)
	if *updateTranscript {
		var g strings.Builder
		for _, in := range ins {
			reply, end := transcribe(in.in)
			fmt.Fprintf(&g, "%s\t%s\t%s\n", in.name, strconv.Quote(digestLong(reply)), strconv.Quote(end))
		}
		if err := os.WriteFile(transcriptGolden, []byte(g.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(transcriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	type recorded struct{ reply, end string }
	golden := make(map[string]recorded)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("golden line %q: want name, reply, end", line)
		}
		reply, err1 := strconv.Unquote(f[1])
		end, err2 := strconv.Unquote(f[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("golden line %q: %v %v", line, err1, err2)
		}
		golden[f[0]] = recorded{reply, end}
	}
	if len(golden) != len(ins) {
		t.Fatalf("golden has %d entries, inputs %d: re-record with -update-transcript", len(golden), len(ins))
	}
	for _, in := range ins {
		want, ok := golden[in.name]
		if !ok {
			t.Errorf("%s: no recorded transcript", in.name)
			continue
		}
		reply, end := transcribe(in.in)
		if now, excepted := tokenizerExceptions[in.name]; excepted {
			if !bytes.ContainsAny(in.in, "\t\u0085\u00a0") {
				t.Errorf("%s: listed as a tokenizer exception but has no non-space whitespace", in.name)
			}
			if reply != now {
				t.Errorf("%s: reply %q, want %q", in.name, reply, now)
			}
			continue
		}
		if reply = digestLong(reply); reply != want.reply || end != want.end {
			t.Errorf("%s: transcript moved\n got: %.300q (%s)\n want:%.300q (%s)", in.name, reply, end, want.reply, want.end)
		}
	}
}
