// faulttolerance demonstrates the §IV-A requirements the paper imposed
// on UCR for the data-center setting, which distinguish it from MPI
// runtimes:
//
//  1. One failing process must not take others down: a client node
//     dies mid-conversation and every other client keeps working.
//  2. Synchronization carries timeouts: when the *server* dies, a
//     blocked client gets a timeout instead of hanging, and can take
//     corrective action ("a client may decide that a server has gone
//     down").
package main

import (
	"errors"
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
	behaviors.OpTimeout = 200 * simnet.Microsecond // §IV-A: waits carry deadlines

	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	alice, err := d.NewClient(cluster.UCRIB, behaviors)
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := d.NewClient(cluster.UCRIB, behaviors)
	if err != nil {
		return err
	}
	defer bob.Close()

	// Both clients converse with the shared server.
	if err := alice.MC.Set("owner:42", []byte("alice"), 0, 0); err != nil {
		return err
	}
	if err := bob.MC.Set("owner:43", []byte("bob"), 0, 0); err != nil {
		return err
	}
	fmt.Fprintln(out, "phase 1: both clients serving traffic")

	// Bob's machine dies mid-flight.
	bob.Node.Fail()
	err = bob.MC.Set("owner:44", []byte("bob"), 0, 0)
	if err == nil {
		return errors.New("phase 2: op from a dead node unexpectedly succeeded")
	}
	fmt.Fprintf(out, "phase 2: bob's node failed; bob's op returns: %v\n", err)

	// Alice is completely unaffected — the failure is isolated to
	// bob's endpoint; the server and alice's endpoint keep working.
	v, _, _, err := alice.MC.Get("owner:42")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "phase 3: alice still served after bob died: owner:42=%q\n", v)
	if err := alice.MC.Set("owner:45", []byte("alice"), 0, 0); err != nil {
		return err
	}

	// Now the server itself goes down. Alice's next operation blocks on
	// counter C, hits her configured timeout, and returns an error she
	// can act on instead of hanging forever.
	d.ServerNode.Fail()
	if _, _, _, err = alice.MC.Get("owner:42"); err == nil {
		return errors.New("phase 4: op against a dead server unexpectedly succeeded")
	}
	fmt.Fprintf(out, "phase 4: server died; alice's op timed out: %v\n", err)
	fmt.Fprintln(out, "phase 5: corrective action: alice marks the server dead and would re-hash to a surviving pool")

	// Phase 6: not a dead machine but a lossy fabric — 20% of messages
	// dropped by a seeded injector. RC retransmission under UCR absorbs
	// every loss; all operations complete, just a little later.
	lossyBehaviors := behaviors
	lossyBehaviors.OpTimeout = 2 * simnet.Millisecond
	lossyBehaviors.Retries = 3
	lossy := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer lossy.Close()
	faults := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 7, DropRate: 0.2})
	lossy.IB.SetFaults(faults)

	carol, err := lossy.NewClient(cluster.UCRIB, lossyBehaviors)
	if err != nil {
		return err
	}
	defer carol.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("lossy:%d", i)
		if err := carol.MC.Set(key, []byte("v"), 0, 0); err != nil {
			return err
		}
		if _, _, _, err := carol.MC.Get(key); err != nil {
			return fmt.Errorf("phase 6: get %s over lossy fabric: %w", key, err)
		}
	}
	delivered, dropped, _ := faults.Stats()
	retrans := carol.Runtime().HCA().Retransmits()
	for _, hca := range lossy.ServerHCAs {
		retrans += hca.Retransmits()
	}
	fmt.Fprintf(out, "phase 6: 40 ops over a 20%%-loss fabric all completed: %d delivered, %d dropped, %d RC retransmissions\n",
		delivered, dropped, retrans)
	return nil
}
