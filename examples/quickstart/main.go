// Quickstart: boot the RDMA-capable Memcached on the simulated QDR
// cluster (the paper's cluster B), connect one UCR client, and run the
// basic operation set. Latency is read straight off the client's
// virtual clock — the number the paper's figures plot.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	client, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		return err
	}
	defer client.Close()

	// Set, get, and verify a small item.
	if err := client.MC.Set("greeting", []byte("hello, RDMA world"), 0, 0); err != nil {
		return err
	}
	value, flags, cas, err := client.MC.Get("greeting")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "get greeting -> %q (flags=%d cas=%d)\n", value, flags, cas)

	// Measure the paper's headline: a 4 KB Get over UCR on QDR.
	payload := make([]byte, 4096)
	if err := client.MC.Set("item-4k", payload, 0, 0); err != nil {
		return err
	}
	start := client.Clock.Now()
	const ops = 100
	for i := 0; i < ops; i++ {
		if _, _, _, err := client.MC.Get("item-4k"); err != nil {
			return err
		}
	}
	mean := (client.Clock.Now() - start) / ops
	fmt.Fprintf(out, "4 KB Get over UCR on ConnectX QDR: %.2f us mean (paper: ~12 us)\n", mean.Micros())

	// Counters and deletion.
	if err := client.MC.Set("hits", []byte("0"), 0, 0); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := client.MC.Incr("hits", 7); err != nil {
			return err
		}
	}
	n, err := client.MC.Decr("hits", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hits counter after 3x incr 7 and decr 1: %d\n", n)
	if err := client.MC.Delete("hits"); err != nil {
		return err
	}

	fmt.Fprintf(out, "server stats: %+v\n", d.Server.Store().Stats())
	return nil
}
