package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// script builds client c's seeded text script over its own keys: every
// storage verb, incr/decr, delete, touch and multi-key get, all with
// exptime 0, ended by quit. It uses no gets/cas (CAS ids are one
// process-wide sequence, so another client's stores move them) and no
// flush_all (it reaches every client's keys).
func script(c int, seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	key := func() string { return fmt.Sprintf("c%d-k%d", c, rng.Intn(6)) }
	value := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprint(rng.Intn(1000)) // numeric: incr/decr hit it
		}
		return strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(40))
	}
	var b bytes.Buffer
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			verb := []string{"set", "add", "replace", "append", "prepend"}[rng.Intn(5)]
			v := value()
			fmt.Fprintf(&b, "%s %s %d 0 %d\r\n%s\r\n", verb, key(), rng.Intn(100), len(v), v)
		case 5:
			fmt.Fprintf(&b, "%s %s %d\r\n", []string{"incr", "decr"}[rng.Intn(2)], key(), rng.Intn(50))
		case 6:
			fmt.Fprintf(&b, "delete %s\r\n", key())
		case 7:
			fmt.Fprintf(&b, "touch %s 0\r\n", key())
		default:
			fmt.Fprintf(&b, "get %s %s %s\r\n", key(), key(), key())
		}
	}
	b.WriteString("quit\r\n")
	return b.Bytes()
}

// alone serves req on a fresh store with a ProtoConn and no other
// client: the reply stream a client should see however the server
// interleaves its commands with other connections'.
func alone(req []byte) []byte {
	var out bytes.Buffer
	pc := memcached.NewProtoConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(req), &out}, memcached.NewStore(memcached.StoreConfig{}))
	clk := simnet.NewVClock(0)
	for {
		if quit, err := pc.ServeOne(clk); quit || err != nil {
			return out.Bytes()
		}
	}
}

func newServer() *server {
	return &server{store: memcached.NewStore(memcached.StoreConfig{}), start: time.Now()}
}

// dial connects a client to srv over an in-memory pipe; the server side
// is served on a goroutine of its own, as main does for each accepted
// connection. A client stuck for 10 s fails its read or write instead of
// hanging the test.
func dial(t *testing.T, srv *server, wrap func(net.Conn) net.Conn) net.Conn {
	cli, conn := net.Pipe()
	if wrap != nil {
		conn = wrap(conn)
	}
	go srv.serve(conn)
	cli.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { cli.Close() })
	return cli
}

// roundTrip sends req from a writer goroutine and returns every byte
// the server sends back until it closes the connection.
func roundTrip(cli net.Conn, req []byte) ([]byte, error) {
	werr := make(chan error, 1)
	go func() {
		_, err := cli.Write(req)
		werr <- err
	}()
	got, err := io.ReadAll(cli)
	if err != nil {
		return got, err
	}
	return got, <-werr
}

// TestServeInterleavesClients drives several clients through one server
// at once. Their commands interleave on the one store, but over disjoint
// keys each client's reply stream is exactly what its script gets served
// alone.
func TestServeInterleavesClients(t *testing.T) {
	const clients = 6
	srv := newServer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		req := script(c, int64(100+c), 300)
		cli := dial(t, srv, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := roundTrip(cli, req)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if want := alone(req); !bytes.Equal(got, want) {
				t.Errorf("client %d: reply stream differs from the script served alone:\ngot  %q\nwant %q", c, got, want)
			}
		}()
	}
	wg.Wait()
}

// readEntered reports each Read call's entry on a server-side
// connection, with the bytes its earlier reads returned (entered is
// buffered past the few reads a test makes).
type readEntered struct {
	net.Conn
	read    int
	entered chan int
}

func (r *readEntered) Read(p []byte) (int, error) {
	r.entered <- r.read
	n, err := r.Conn.Read(p)
	r.read += n
	return n, err
}

// TestServeStalledClientHoldsNothing: a client that sends half of a data
// block and stalls leaves its connection blocked in a read, and another
// client's commands still complete; the stalled set completes once the
// rest of its block arrives.
func TestServeStalledClientHoldsNothing(t *testing.T) {
	srv := newServer()
	stalled := &readEntered{entered: make(chan int, 16)}
	a := dial(t, srv, func(c net.Conn) net.Conn { stalled.Conn = c; return stalled })
	head := []byte("set slow 0 0 10\r\n12345")
	if _, err := a.Write(head); err != nil {
		t.Fatal(err)
	}
	// The server has taken the whole head once it enters another read:
	// that read waits for the rest of the block.
	for n := range stalled.entered {
		if n == len(head) {
			break
		}
	}

	req := script(1, 7, 50)
	got, err := roundTrip(dial(t, srv, nil), req)
	if err != nil {
		t.Fatalf("second client, while the first stalls: %v", err)
	}
	if want := alone(req); !bytes.Equal(got, want) {
		t.Fatalf("second client's replies:\ngot  %q\nwant %q", got, want)
	}

	got, err = roundTrip(a, []byte("67890\r\nget slow\r\nquit\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "STORED\r\nVALUE slow 0 10\r\n1234567890\r\nEND\r\n"; string(got) != want {
		t.Fatalf("stalled client's replies = %q, want %q", got, want)
	}
}
