package cluster_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// The smallest end-to-end flow: boot the QDR cluster, connect the
// paper's RDMA-capable client, cache and retrieve an item.
func ExampleNew() {
	d := cluster.New(cluster.ClusterB(), cluster.Options{})
	defer d.Close()

	client, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.MC.Set("user:42", []byte("profile-blob"), 0, 0); err != nil {
		log.Fatal(err)
	}
	value, _, _, err := client.MC.Get("user:42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:42 -> %s\n", value)
	fmt.Printf("server items: %d\n", d.Server.Store().Stats().CurrItems)
	// Output:
	// user:42 -> profile-blob
	// server items: 1
}

// Sockets clients and UCR clients share one cache (§V-A compatibility).
func ExampleDeployment_NewClient() {
	d := cluster.New(cluster.ClusterA(), cluster.Options{})
	defer d.Close()

	rdma, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		log.Fatal(err)
	}
	defer rdma.Close()
	sockets, err := d.NewClient(cluster.TOE10G, mcclient.DefaultBehaviors())
	if err != nil {
		log.Fatal(err)
	}
	defer sockets.Close()

	if err := rdma.MC.Set("shared", []byte("one-cache"), 0, 0); err != nil {
		log.Fatal(err)
	}
	v, _, _, err := sockets.MC.Get("shared")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sockets client reads: %s\n", v)
	// Output:
	// sockets client reads: one-cache
}
