// Command memslap is the load-generation tool of this repository —
// the role memslap plays in the memcached distribution, except that
// (like the paper's §VI benchmark suite, and unlike stock memslap,
// which bypasses libmemcached and writes raw sockets) it drives the
// standard client API.
//
// Usage:
//
//	memslap [-cluster B] [-transport UCR-IB] [-concurrency 8]
//	        [-ops 200] [-size 4096] [-mix get] [-servers 1] [-ketama]
//	        [-zipf 0.99]
//
// Mixes: set, get, set10-get90 (the paper's non-interleaved workload),
// set50-get50 (interleaved). Reports aggregate TPS and the latency
// distribution in virtual time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

func main() {
	var (
		clusterName = flag.String("cluster", "B", "cluster profile: A or B")
		transport   = flag.String("transport", "UCR-IB", "UCR-IB | IPoIB | SDP | 10GigE-TOE | 1GigE")
		concurrency = flag.Int("concurrency", 8, "number of client nodes")
		ops         = flag.Int("ops", 200, "operations per client")
		size        = flag.Int("size", 4096, "value size in bytes")
		mixName     = flag.String("mix", "get", "set | get | set10-get90 | set50-get50")
		servers     = flag.Int("servers", 1, "number of memcached servers")
		ketama      = flag.Bool("ketama", false, "use consistent hashing")
		workers     = flag.Int("workers", 4, "server worker threads")
		keys        = flag.Int("keys", 64, "distinct keys in the workload")
		zipf        = flag.Float64("zipf", 0, "Zipf exponent for key popularity (0 = uniform round-robin; 0.99 = classic web skew)")
	)
	flag.Parse()

	mix, ok := bench.ParseMix(*mixName)
	if !ok {
		fmt.Fprintf(os.Stderr, "memslap: unknown mix %q\n", *mixName)
		os.Exit(1)
	}
	p := cluster.ProfileByName(*clusterName)
	if !p.HasTransport(cluster.Transport(*transport)) {
		fmt.Fprintf(os.Stderr, "memslap: cluster %s has no transport %q\n", p.Name, *transport)
		os.Exit(1)
	}

	d := cluster.New(p, cluster.Options{Servers: *servers, ServerWorkers: *workers})
	defer d.Close()
	behaviors := mcclient.DefaultBehaviors()
	if *ketama {
		behaviors.Distribution = mcclient.DistKetama
	}

	// Every client works the same keyspace; with -zipf each draws from it
	// by its own popularity stream, otherwise round-robin.
	clients := make([]*cluster.Client, *concurrency)
	clocks := make([]*simnet.VClock, *concurrency)
	nextKey := make([]func() string, *concurrency)
	for i := range clients {
		c, err := d.NewClient(cluster.Transport(*transport), behaviors)
		if err != nil {
			log.Fatalf("memslap: %v", err)
		}
		defer c.Close()
		clients[i], clocks[i] = c, c.Clock
		if *zipf > 0 {
			nextKey[i] = bench.NewZipfWorkload(42, uint64(i)+1, *keys, *size, *zipf).Key
		} else {
			nextKey[i] = bench.NewWorkload(42, *keys, *size).Key
		}
	}

	// Populate once so gets hit.
	w := bench.NewWorkload(42, *keys, *size)
	if err := w.Populate(clients[0].MC); err != nil {
		log.Fatalf("memslap: populate: %v", err)
	}

	rec := &bench.LatencyRecorder{}
	makespan, err := bench.ClosedLoop(clocks, *ops, rec, func(i, n int) error {
		key := nextKey[i]()
		if mix.IsSet(n) {
			return clients[i].MC.Set(key, w.Value(), 0, 0)
		}
		_, _, _, err := clients[i].MC.Get(key)
		return err
	})
	if err != nil {
		log.Fatalf("memslap: %v", err)
	}

	fmt.Printf("memslap: cluster %s, %s, %d clients x %d ops, %d B values, mix %s, %d server(s), zipf=%.2f\n",
		p.Name, *transport, *concurrency, *ops, *size, mix, *servers, *zipf)
	fmt.Printf("  throughput  %12.0f TPS aggregate (virtual makespan %v)\n",
		float64(rec.Count())/makespan.Seconds(), makespan)
	fmt.Printf("  latency     mean %8.2f us   min %8.2f us\n", rec.Mean(), rec.Min())
	fmt.Printf("              p50  %8.2f us   p95 %8.2f us\n", rec.Percentile(50), rec.Percentile(95))
	fmt.Printf("              p99  %8.2f us   max %8.2f us\n", rec.Percentile(99), rec.Max())
}
