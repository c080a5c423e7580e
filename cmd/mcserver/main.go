// Command mcserver runs the Memcached engine from this repository over
// the real operating-system network stack: the same slab allocator,
// hash table, LRU, expiry and text protocol that the simulated
// benchmarks exercise, served on a TCP port. It is wire-compatible with
// standard memcached clients for the implemented command set (get,
// gets, set, add, replace, append, prepend, cas, delete, incr, decr,
// touch, stats, flush_all, version, verbosity, quit).
//
// Usage:
//
//	mcserver [-addr :11211] [-m 64] [-M] [-I 1024] [-v]
//
// Each connection is served on a goroutine of its own, but commands run
// one at a time: the store takes no lock of its own, so the process
// holds one lock while a command runs and releases it whenever a
// connection waits for its client's bytes or for its reply to go out.
// The store has one LRU per slab class, as in memcached 1.4.5.
//
// Virtual time for expiry maps to wall-clock seconds since start.
package main

import (
	"flag"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

func main() {
	var (
		addr      = flag.String("addr", ":11211", "listen address")
		memMB     = flag.Int64("m", 64, "memory limit in megabytes")
		noEvict   = flag.Bool("M", false, "return errors instead of evicting")
		verbose   = flag.Bool("v", false, "log connections")
		maxItemKB = flag.Int("I", 1024, "maximum item size in kilobytes")
	)
	flag.Parse()

	srv := &server{
		store: memcached.NewStore(memcached.StoreConfig{
			MemoryLimit:      *memMB << 20,
			MaxItemSize:      *maxItemKB << 10,
			DisableEvictions: *noEvict,
		}),
		start:   time.Now(),
		verbose: *verbose,
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mcserver: %v", err)
	}
	log.Printf("mcserver: engine %s listening on %s (%d MB)", memcached.Version, lis.Addr(), *memMB)

	for {
		conn, err := lis.Accept()
		if err != nil {
			log.Fatalf("mcserver: accept: %v", err)
		}
		if *verbose {
			log.Printf("mcserver: connection from %s", conn.RemoteAddr())
		}
		go srv.serve(conn)
	}
}

// server is the process: one store and the lock that owns it.
type server struct {
	store   *memcached.Store
	owner   sync.Mutex // held while a command runs against store
	start   time.Time
	verbose bool
}

// serve drives one connection, running each command under s.owner. The
// wall clock stands in for virtual time so relative expiry behaves like
// stock memcached. The clock is re-synced on every socket read, not once
// per loop: setting it only before ServeOne stamps a command with the
// time the PREVIOUS reply was sent, so a key could outlive its TTL
// across an idle gap on a blocked read.
func (s *server) serve(conn net.Conn) {
	defer conn.Close()
	clk := simnet.NewVClock(0)
	pc := memcached.NewProtoConn(wallSync{conn, clk, s}, s.store)
	s.owner.Lock()
	defer s.owner.Unlock()
	for {
		clk.Set(simnet.Time(time.Since(s.start)))
		quit, err := pc.ServeOne(clk)
		if err != nil {
			if s.verbose {
				log.Printf("mcserver: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if quit {
			return
		}
	}
}

// wallSync forwards the connection's bytes with the owner lock released,
// so a client that stalls mid-command holds up no other connection:
// ProtoConn holds no store reference across stream I/O (a reply is
// copied out before it is written, a data block read in before the
// store sees it). It also moves the virtual clock up to wall time
// whenever data arrives, so command execution (which happens after the
// full request is read) sees the current time even after the connection
// sat idle in a blocking read.
type wallSync struct {
	net.Conn
	clk *simnet.VClock
	srv *server
}

func (w wallSync) Read(p []byte) (int, error) {
	w.srv.owner.Unlock()
	n, err := w.Conn.Read(p)
	w.srv.owner.Lock()
	if t := simnet.Time(time.Since(w.srv.start)); t > w.clk.Now() {
		w.clk.Set(t)
	}
	return n, err
}

func (w wallSync) Write(p []byte) (int, error) {
	w.srv.owner.Unlock()
	defer w.srv.owner.Lock()
	return w.Conn.Write(p)
}
