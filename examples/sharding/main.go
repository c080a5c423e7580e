// sharding shows the architecture the paper's §II-C calls inherently
// scalable: many Memcached servers, no central directory — every client
// locates a key's owner with a hash. Four RDMA-capable servers pool
// their memory; a client shards 10,000 items across them with
// consistent (ketama) hashing; one server dies and is auto-ejected,
// and the pool keeps serving with only that server's arc of the
// keyspace remapped.
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

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	behaviors := mcclient.DefaultBehaviors()
	behaviors.AutoEject = true
	behaviors.OpTimeout = 300 * simnet.Microsecond

	d := cluster.New(cluster.ClusterB(), cluster.Options{Servers: 4})
	defer d.Close()
	client, err := d.NewClient(cluster.UCRIB, behaviors)
	if err != nil {
		return err
	}
	defer client.Close()

	// Shard a keyspace across the pool.
	const items = 10_000
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("object:%d", i)
		if err := client.MC.Set(key, []byte(key), 0, 0); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "distribution across the pool (no central directory, §II-C):")
	for i, srv := range d.Servers {
		st := srv.Store().Stats()
		fmt.Fprintf(out, "  server%d: %5d items, %7d bytes\n", i, st.CurrItems, st.Bytes)
	}

	// Record each key's owner, then kill one server.
	owners := make([]int, items)
	for i := range owners {
		owners[i] = client.MC.ServerFor(fmt.Sprintf("object:%d", i))
	}
	dead := 2
	fmt.Fprintf(out, "\nserver%d dies...\n", dead)
	d.ServerNodes[dead].Fail()

	// The next operation against the dead shard ejects it.
	probe := 0
	for owners[probe] != dead {
		probe++
	}
	if _, _, _, err := client.MC.Get(fmt.Sprintf("object:%d", probe)); err != nil {
		// The op timed out against the dead server, which was ejected;
		// the transparent retry landed on the key's new owner, where the
		// item is (correctly) a miss until re-populated.
		fmt.Fprintf(out, "first access after death: %v (server auto-ejected, key remapped)\n", err)
	}

	// Count how many keys moved: with ketama, only the dead server's
	// share remaps; everyone else keeps their owner.
	moved, deadShare := 0, 0
	for i := range owners {
		now := client.MC.ServerFor(fmt.Sprintf("object:%d", i))
		if owners[i] == dead {
			deadShare++
			continue
		}
		if now != owners[i] {
			moved++
		}
	}
	fmt.Fprintf(out, "after ejection: %d live servers; %d keys owned by the dead server remapped;\n",
		client.MC.LiveServers(), deadShare)
	fmt.Fprintf(out, "only %d of %d other keys moved (consistent hashing, vs ~%d%% under modula)\n",
		moved, items-deadShare, 100*3/4)

	// The pool still serves reads and writes.
	if err := client.MC.Set("post-failure", []byte("still-working"), 0, 0); err != nil {
		return err
	}
	v, _, _, err := client.MC.Get("post-failure")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pool still serving after failure: %q\n", v)
	return nil
}
