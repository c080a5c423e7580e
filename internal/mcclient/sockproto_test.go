package mcclient

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestNonASCIISpaceKeyBothTransports: a key holding U+00A0 or U+0085
// passes CheckKey, and must then mean the same key on both transports.
// Over sockets the server's tokenizer used to split it on the Unicode
// space: the set answered ERROR, its data block was parsed as a command,
// and every later reply on the connection was off by one.
func TestNonASCIISpaceKeyBothTransports(t *testing.T) {
	st := newStack(t)
	utr, _ := st.ucrClient(t)
	for name, tr := range map[string]Transport{"sockets": st.sockClient(t), "ucr": utr} {
		t.Run(name, func(t *testing.T) {
			c, err := New(simnet.NewVClock(0), DefaultBehaviors(), []Transport{tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, key := range []string{name + "-caf\u00a0e", name + "-a\u0085b"} {
				if err := c.Set(key, []byte("v:"+key), 3, 0); err != nil {
					t.Fatalf("Set(%q): %v", key, err)
				}
				v, flags, _, err := c.Get(key)
				if err != nil || string(v) != "v:"+key || flags != 3 {
					t.Fatalf("Get(%q) = (%q, %d, %v)", key, v, flags, err)
				}
			}
			// The connection is still in step: an ordinary key round-trips.
			if err := c.Set(name+"-plain", []byte("p"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if v, _, _, err := c.Get(name + "-plain"); err != nil || string(v) != "p" {
				t.Fatalf("Get after = (%q, %v)", v, err)
			}
		})
	}
}

// scriptedServer accepts one sockets connection and answers the i-th
// request line with replies[i], whatever was asked.
func scriptedServer(t *testing.T, st *stack, service string, replies ...string) {
	t.Helper()
	lis, err := st.prov.Listen(st.srvNode, service)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lis.Close)
	go func() {
		conn, ok := lis.Accept(simnet.NewVClock(0))
		if !ok {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for _, reply := range replies {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := conn.Write([]byte(reply)); err != nil {
				return
			}
		}
		r.ReadString('\n') // hold the connection open until the client closes it
	}()
}

// TestSockGetRejectsWrongKeyEcho: the VALUE line echoes the key the
// server answered for. A reply for any other key is a protocol error —
// not a hit carrying another key's bytes — and, being well framed, it is
// consumed whole, so the next op on the connection still lines up.
func TestSockGetRejectsWrongKeyEcho(t *testing.T) {
	st := newStack(t)
	scriptedServer(t, st, "liar",
		"VALUE other 0 5 9\r\nwrong\r\nEND\r\n",                               // Get("mine")
		"VALUE mine 4 4 7\r\nmine\r\nEND\r\n",                                 // Get("mine") again
		"VALUE a 0 1\r\n1\r\nVALUE z 0 1\r\n9\r\nVALUE b 0 1\r\n2\r\nEND\r\n", // GetMulti(a, b)
		"VALUE b 0 1\r\n2\r\nVALUE a 0 1\r\n1\r\nEND\r\n",                     // GetMulti(a, b), out of request order
		"VALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n1\r\nVALUE b 0 1\r\n2\r\nEND\r\n", // GetMulti(a, a, b)
		"VALUE other 0 5 9\r\nwrong\r\nEND\r\n",                               // pipelined get
	)
	tr := st.dialSock(t, "liar")
	defer tr.Close()
	clk := simnet.NewVClock(0)

	v, _, _, hit, err := tr.Get(clk, "mine")
	if err == nil || hit || v != nil || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("Get answered for another key = (%q, %v, %v), want a protocol error naming it", v, hit, err)
	}
	v, flags, cas, hit, err := tr.GetInto(clk, "mine", make([]byte, 0, 8))
	if err != nil || !hit || string(v) != "mine" || flags != 4 || cas != 7 {
		t.Fatalf("Get after the bad reply = (%q, %d, %d, %v, %v): stream out of step", v, flags, cas, hit, err)
	}

	if got, err := tr.GetMulti(clk, []string{"a", "b"}); err == nil || !strings.Contains(err.Error(), `"z"`) {
		t.Fatalf("GetMulti with an unrequested key = (%v, %v)", got, err)
	}
	if got, err := tr.GetMulti(clk, []string{"a", "b"}); err == nil {
		t.Fatalf("GetMulti answered out of request order = %v, want an error", got)
	}
	got, err := tr.GetMulti(clk, []string{"a", "a", "b"})
	if err != nil || len(got) != 2 || string(got["a"]) != "1" || string(got["b"]) != "2" {
		t.Fatalf("GetMulti with a repeated key = (%v, %v)", got, err)
	}

	pipe := tr.Pipeline(2)
	f := pipe.StartGet(clk, "mine")
	if v, _, _, hit, err := f.Wait(clk); err == nil || hit || v != nil {
		t.Fatalf("pipelined get answered for another key = (%q, %v, %v)", v, hit, err)
	}
	if err := pipe.Wait(clk); err == nil {
		t.Fatal("pipeline kept going after a protocol error")
	}
}

// TestSockGetMultiLongRequestLine: 2 000 keys make a ≈ 60 KB request
// line, four times the 16 KB reader buffer on either end. ReadString
// grew a string for it; ReadSlice alone returns ErrBufferFull, so the
// codec's line reader has to assemble it.
func TestSockGetMultiLongRequestLine(t *testing.T) {
	st := newStack(t)
	tr := st.sockClient(t)
	defer tr.Close()
	clk := simnet.NewVClock(0)
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("long-line-key-%04d-padding-pad", i)
		if i%100 == 0 {
			if _, err := tr.Set(clk, keys[i], 0, 0, []byte(keys[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := tr.GetMulti(clk, keys)
	if err != nil || len(got) != 20 {
		t.Fatalf("GetMulti(2000 keys) = (%d hits, %v), want 20", len(got), err)
	}
	for k, v := range got {
		if !bytes.Equal(v, []byte(k)) {
			t.Fatalf("GetMulti[%q] = %q", k, v)
		}
	}
	// The connection survived it.
	if v, _, _, ok, err := tr.Get(clk, keys[0]); err != nil || !ok || string(v) != keys[0] {
		t.Fatalf("Get after = (%q, %v, %v)", v, ok, err)
	}
}
