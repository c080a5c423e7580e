// multiclient reproduces the flavour of the paper's Fig 6 experiment as
// a runnable program: sixteen closed-loop clients on separate simulated
// nodes hammer one Memcached server with 4-byte Gets, first over UCR,
// then over SDP, and the aggregate transactions-per-second are compared
// (§VI-D: "many clients access the same Memcached server
// simultaneously").
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

const (
	clients      = 16
	opsPerClient = 300
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	fmt.Fprintf(out, "%d clients x %d four-byte Gets against one server (cluster B)\n\n", clients, opsPerClient)
	ucr, err := measure(out, cluster.UCRIB)
	if err != nil {
		return err
	}
	sdp, err := measure(out, cluster.SDP)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nUCR-IB delivers %.1fx the aggregate throughput of SDP (paper: ~6x on QDR)\n", ucr/sdp)
	return nil
}

func measure(out io.Writer, transport cluster.Transport) (tps float64, err error) {
	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	// One client populates; all clients read the shared keyspace.
	pool := make([]*cluster.Client, clients)
	clocks := make([]*simnet.VClock, clients)
	for i := range pool {
		c, err := d.NewClient(transport, mcclient.DefaultBehaviors())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		pool[i], clocks[i] = c, c.Clock
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := pool[0].MC.Set(keys[i], []byte("abcd"), 0, 0); err != nil {
			return 0, err
		}
	}

	// The closed-loop driver aligns every clock and steps the clients
	// round-robin on this goroutine; each client's clock advances only by
	// its own operations, so the makespan is what sixteen concurrent
	// clients would see.
	makespan, err := bench.ClosedLoop(clocks, opsPerClient, nil, func(i, n int) error {
		_, _, _, err := pool[i].MC.Get(keys[(i+n)%len(keys)])
		return err
	})
	if err != nil {
		return 0, err
	}
	tps = float64(clients*opsPerClient) / makespan.Seconds()
	fmt.Fprintf(out, "%-8s %10.0f TPS aggregate (makespan %v)\n", transport, tps, makespan)

	stats := d.Server.Store().Stats()
	fmt.Fprintf(out, "         server saw %d gets, %d hits\n", stats.CmdGet, stats.GetHits)
	return tps, nil
}
