// dbcache plays out the paper's motivating deployment (Fig 1b): proxy
// servers answer read-heavy traffic by consulting Memcached before
// falling back to a (slow) database tier, caching each query result.
//
// A simulated database charges a few milliseconds of virtual time per
// query — the "expensive database queries in the critical path" the
// paper's introduction describes. The example runs the same skewed
// read-mostly workload through a UCR-connected cache and an IPoIB
// sockets cache and reports the end-to-end mean per request, showing
// how the cache transport's latency translates into page-level time
// once the database is mostly out of the way.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// database is the slow backing store.
type database struct {
	queryCost simnet.Duration
	queries   int
}

// query charges the cost and fabricates a row for the key.
func (db *database) query(clk *simnet.VClock, key string) []byte {
	db.queries++
	clk.Advance(db.queryCost)
	return []byte("row-data-for-" + key)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	for _, transport := range []cluster.Transport{cluster.UCRIB, cluster.IPoIB} {
		mean, hits, misses, dbQueries, err := runWorkload(transport)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8s mean request %8.2f us  (cache hits %d, misses %d, db queries %d)\n",
			transport, mean.Micros(), hits, misses, dbQueries)
	}
	return nil
}

// runWorkload serves 2000 proxy requests over a Zipf-ish keyspace.
func runWorkload(transport cluster.Transport) (mean simnet.Duration, hits, misses, dbQueries int, err error) {
	d := cluster.New(cluster.ClusterA(), cluster.Options{})
	defer d.Close()
	proxy, err := d.NewClient(transport, mcclient.DefaultBehaviors())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer proxy.Close()

	db := &database{queryCost: 2 * simnet.Millisecond}
	rng := simnet.NewRand(2026)

	const requests = 2000
	start := proxy.Clock.Now()
	for i := 0; i < requests; i++ {
		// Skewed popularity: most requests hit a hot set of 32 keys,
		// the tail spreads over 4096 keys.
		var key string
		if rng.Intn(10) < 8 {
			key = fmt.Sprintf("hot-%d", rng.Intn(32))
		} else {
			key = fmt.Sprintf("cold-%d", rng.Intn(4096))
		}
		// Cache-aside: get, fall back to the database, then set.
		if _, _, _, err := proxy.MC.Get(key); err == nil {
			hits++
			continue
		} else if err != mcclient.ErrCacheMiss {
			return 0, 0, 0, 0, err
		}
		misses++
		row := db.query(proxy.Clock, key)
		if err := proxy.MC.Set(key, row, 0, 300); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	elapsed := proxy.Clock.Now() - start
	return elapsed / requests, hits, misses, db.queries, nil
}
