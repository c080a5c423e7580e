package memcached

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// runProto feeds a raw command stream through the text protocol against
// a fresh store and returns everything the server wrote back.
func runProto(t *testing.T, input string) string {
	t.Helper()
	var out bytes.Buffer
	pc := NewProtoConn(fuzzStream{strings.NewReader(input), &out}, NewStore(StoreConfig{MemoryLimit: 1 << 20, Stripes: 2}))
	clk := simnet.NewVClock(0)
	for {
		quit, err := pc.ServeOne(clk)
		if quit || err != nil {
			return out.String()
		}
		clk.Advance(simnet.Microsecond)
	}
}

// TestProtocolEdges is the table of boundary behaviors the text codec
// must hold: every reply stream is compared exactly, so a desynced
// stream (e.g. a data block left unconsumed after an error) shows up as
// garbled replies to the probe commands that follow.
func TestProtocolEdges(t *testing.T) {
	longKey := strings.Repeat("K", 251) // one past the 250-byte limit
	okKey := strings.Repeat("K", 250)
	tests := []struct {
		name string
		in   string
		want string
	}{
		{
			// The data block after a rejected set must be swallowed: the
			// version probe proves the stream resynced.
			name: "oversized key set resyncs",
			in:   "set " + longKey + " 0 0 3\r\nbar\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "max-length key works",
			in:   "set " + okKey + " 0 0 1\r\nx\r\nget " + okKey + "\r\n",
			want: "STORED\r\nVALUE " + okKey + " 0 1\r\nx\r\nEND\r\n",
		},
		{
			name: "oversized key get",
			in:   "get " + longKey + "\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "noreply on every storage command",
			in: "set a 1 0 1 noreply\r\nx\r\n" +
				"add b 2 0 1 noreply\r\ny\r\n" +
				"replace a 3 0 1 noreply\r\nz\r\n" +
				"append a 0 0 1 noreply\r\nw\r\n" +
				"prepend a 0 0 1 noreply\r\nv\r\n" +
				"gets a\r\n" +
				"get a b\r\n",
			want: "VALUE a 3 3 5\r\nvzw\r\nEND\r\n" +
				"VALUE a 3 3\r\nvzw\r\nVALUE b 2 1\r\ny\r\nEND\r\n",
		},
		{
			name: "noreply cas delete incr decr touch",
			in: "set n 0 0 1\r\n5\r\n" +
				"gets n\r\n" + // cas id 1
				"cas n 0 0 1 1 noreply\r\n7\r\n" +
				"incr n 2 noreply\r\n" +
				"decr n 1 noreply\r\n" +
				"touch n 100 noreply\r\n" +
				"get n\r\n" +
				"delete n noreply\r\n" +
				"get n\r\n",
			want: "STORED\r\nVALUE n 0 1 1\r\n5\r\nEND\r\n" +
				"VALUE n 0 1\r\n8\r\nEND\r\nEND\r\n",
		},
		{
			name: "bad flags parse",
			in:   "set a xx 0 3\r\nbar\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "flags out of uint32 range",
			in:   "set a 4294967296 0 3\r\nbar\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "bad exptime parse",
			in:   "set a 0 later 3\r\nbar\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "negative nbytes",
			in:   "set a 0 0 -3\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "bad cas id parse",
			in:   "cas a 0 0 3 zzz\r\nbar\r\nversion\r\n",
			want: "CLIENT_ERROR bad command line format\r\nVERSION " + Version + "\r\n",
		},
		{
			// Declared size past -I: reject without allocating, swallow the
			// (absent) block — EOF ends the run, but the error reply must be
			// intact first.
			name: "declared nbytes over max item size",
			in:   "set big 0 0 1048577\r\n",
			want: "SERVER_ERROR object too large for cache\r\n",
		},
		{
			name: "bad data chunk terminator",
			in:   "set a 0 0 3\r\nbarXY",
			want: "CLIENT_ERROR bad data chunk\r\n",
		},
		{
			name: "incr wraps at 2^64",
			in:   "set n 0 0 20\r\n18446744073709551615\r\nincr n 3\r\n",
			want: "STORED\r\n2\r\n",
		},
		{
			name: "decr floors at zero",
			in:   "set n 0 0 1\r\n5\r\ndecr n 9\r\nget n\r\n",
			want: "STORED\r\n0\r\nVALUE n 0 1\r\n0\r\nEND\r\n",
		},
		{
			name: "incr non-numeric value",
			in:   "set n 0 0 3\r\nabc\r\nincr n 1\r\n",
			want: "STORED\r\nCLIENT_ERROR cannot increment or decrement non-numeric value\r\n",
		},
		{
			name: "incr bad delta",
			in:   "set n 0 0 1\r\n1\r\nincr n 99999999999999999999\r\nincr n -1\r\n",
			want: "STORED\r\nCLIENT_ERROR invalid numeric delta argument\r\nCLIENT_ERROR invalid numeric delta argument\r\n",
		},
		{
			name: "incr missing key",
			in:   "incr ghost 1\r\ndecr ghost 1\r\n",
			want: "NOT_FOUND\r\nNOT_FOUND\r\n",
		},
		{
			name: "touch bad exptime and missing key",
			in:   "touch a xx\r\ntouch ghost 100\r\n",
			want: "CLIENT_ERROR bad command line format\r\nNOT_FOUND\r\n",
		},
		{
			name: "wrong arity",
			in:   "get\r\nset a 0 0\r\ndelete\r\nincr a\r\ntouch a\r\nunknowncmd\r\n\r\n",
			want: "ERROR\r\nERROR\r\nERROR\r\nERROR\r\nERROR\r\nERROR\r\nERROR\r\n",
		},
		{
			// Only ASCII space separates tokens (memcached 1.4.5's
			// tokenize_command): a key holding U+00A0 or U+0085 — which
			// mcclient.checkKey admits and the AM path carries — is one key.
			// strings.Fields split it in two: the set answered ERROR, its
			// data block was parsed as a command, and the gets missed.
			name: "non-ASCII space inside a key",
			in: "set caf\u00a0e 1 0 1\r\nx\r\ngets caf\u00a0e\r\n" +
				"set a\u0085b 0 0 1\r\ny\r\nget a\u0085b\r\ndelete caf\u00a0e\r\nversion\r\n",
			want: "STORED\r\nVALUE caf\u00a0e 1 1 1\r\nx\r\nEND\r\n" +
				"STORED\r\nVALUE a\u0085b 0 1\r\ny\r\nEND\r\nDELETED\r\nVERSION " + Version + "\r\n",
		},
		{
			name: "trailing junk after noreply",
			in:   "set a 0 0 1 noreply extra\r\nx\r\nversion\r\n",
			want: "ERROR\r\nERROR\r\nVERSION " + Version + "\r\n",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := runProto(t, tc.in)
			if got != tc.want {
				t.Errorf("reply stream mismatch\n in:  %q\n got: %q\n want:%q", tc.in, got, tc.want)
			}
		})
	}
}
