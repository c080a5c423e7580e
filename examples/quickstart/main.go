// Quickstart: boot the RDMA-capable Memcached on the simulated QDR
// cluster (the paper's cluster B), connect one UCR client, and run the
// basic operation set. Latency is read straight off the client's
// virtual clock — the number the paper's figures plot.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

func main() {
	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	client, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Set, get, and verify a small item.
	if err := client.MC.Set("greeting", []byte("hello, RDMA world"), 0, 0); err != nil {
		log.Fatal(err)
	}
	value, flags, cas, err := client.MC.Get("greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get greeting -> %q (flags=%d cas=%d)\n", value, flags, cas)

	// Measure the paper's headline: a 4 KB Get over UCR on QDR.
	payload := make([]byte, 4096)
	if err := client.MC.Set("item-4k", payload, 0, 0); err != nil {
		log.Fatal(err)
	}
	start := client.Clock.Now()
	const ops = 100
	for i := 0; i < ops; i++ {
		if _, _, _, err := client.MC.Get("item-4k"); err != nil {
			log.Fatal(err)
		}
	}
	mean := (client.Clock.Now() - start) / ops
	fmt.Printf("4 KB Get over UCR on ConnectX QDR: %.2f us mean (paper: ~12 us)\n", mean.Micros())

	// Counters and deletion.
	if err := client.MC.Set("hits", []byte("0"), 0, 0); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.MC.Incr("hits", 7); err != nil {
			log.Fatal(err)
		}
	}
	n, err := client.MC.Decr("hits", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hits counter after 3x incr 7 and decr 1: %d\n", n)
	if err := client.MC.Delete("hits"); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("server stats: %+v\n", d.Server.Store().Stats())
}
