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
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

func main() {
	behaviors := mcclient.DefaultBehaviors()
	behaviors.OpTimeout = 200 * simnet.Microsecond // §IV-A: waits carry deadlines

	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	alice, err := d.NewClient(cluster.UCRIB, behaviors)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()
	bob, err := d.NewClient(cluster.UCRIB, behaviors)
	if err != nil {
		log.Fatal(err)
	}
	defer bob.Close()

	// Both clients converse with the shared server.
	must(alice.MC.Set("owner:42", []byte("alice"), 0, 0))
	must(bob.MC.Set("owner:43", []byte("bob"), 0, 0))
	fmt.Println("phase 1: both clients serving traffic")

	// Bob's machine dies mid-flight.
	bob.Node.Fail()
	if err := bob.MC.Set("owner:44", []byte("bob"), 0, 0); err != nil {
		fmt.Printf("phase 2: bob's node failed; bob's op returns: %v\n", err)
	} else {
		log.Fatal("phase 2: op from a dead node unexpectedly succeeded")
	}

	// Alice is completely unaffected — the failure is isolated to
	// bob's endpoint; the server and alice's endpoint keep working.
	v, _, _, err := alice.MC.Get("owner:42")
	must(err)
	fmt.Printf("phase 3: alice still served after bob died: owner:42=%q\n", v)
	must(alice.MC.Set("owner:45", []byte("alice"), 0, 0))

	// Now the server itself goes down. Alice's next operation blocks on
	// counter C, hits her configured timeout, and returns an error she
	// can act on instead of hanging forever.
	d.ServerNode.Fail()
	if _, _, _, err := alice.MC.Get("owner:42"); err != nil {
		fmt.Printf("phase 4: server died; alice's op timed out: %v\n", err)
		fmt.Println("phase 5: corrective action: alice marks the server dead and would re-hash to a surviving pool")
	} else {
		log.Fatal("phase 4: op against a dead server unexpectedly succeeded")
	}

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
		log.Fatal(err)
	}
	defer carol.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("lossy:%d", i)
		must(carol.MC.Set(key, []byte("v"), 0, 0))
		if _, _, _, err := carol.MC.Get(key); err != nil {
			log.Fatalf("phase 6: get %s over lossy fabric: %v", key, err)
		}
	}
	delivered, dropped, _ := faults.Stats()
	retrans := carol.Runtime().HCA().Retransmits()
	for _, hca := range lossy.ServerHCAs {
		retrans += hca.Retransmits()
	}
	fmt.Printf("phase 6: 40 ops over a 20%%-loss fabric all completed: %d delivered, %d dropped, %d RC retransmissions\n",
		delivered, dropped, retrans)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
