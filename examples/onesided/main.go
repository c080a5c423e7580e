// onesided exercises UCR's second API surface (§IV: "interfaces for
// Active Messages as well as one-sided put/get operations") together
// with the verbs atomics that the paper's related work (§III) builds
// data-center services on: the program runs a tiny *distributed
// sequencer and shared log* with no software at all on the memory
// host's critical path.
//
//   - The host exposes a Window: an 8-byte ticket counter followed by a
//     ring of fixed-size log slots.
//   - Each writer claims a slot with an RDMA fetch-and-add on the
//     ticket (no host CPU), then lands its record in the slot with a
//     one-sided Put (no host CPU).
//   - A reader reconstructs the log with one-sided Gets.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

const (
	slotSize = 64
	slots    = 32
)

func main() {
	p := cluster.ClusterB()
	nw := simnet.NewNetwork()
	fab := nw.AddFabric(p.IB)
	cm := verbs.NewCM(fab)

	// The memory host: owns the window, then does nothing but accept
	// endpoints — every data-path operation bypasses its CPU.
	hostNode := nw.AddNode("host")
	hostRT := ucr.New(verbs.NewHCA(hostNode, fab, p.HCA), cm, p.UCR)
	hostMem := make([]byte, 8+slots*slotSize)
	win, err := hostRT.CreateWindow(hostMem, nil)
	if err != nil {
		log.Fatal(err)
	}
	desc := win.Desc()

	lis, err := hostRT.Listen("seqlog")
	if err != nil {
		log.Fatal(err)
	}
	hostCtx := hostRT.NewContext()
	hostClk := simnet.NewVClock(0)
	go func() {
		for {
			if _, ok := lis.Accept(hostCtx, hostClk); !ok {
				return
			}
		}
	}()
	defer lis.Close()

	// Writers on separate nodes, racing for tickets.
	const writers = 4
	const recordsPerWriter = 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := nw.AddNode(fmt.Sprintf("writer%d", w))
			rt := ucr.New(verbs.NewHCA(node, fab, p.HCA), cm, p.UCR)
			ctx := rt.NewContext()
			defer ctx.Destroy()
			clk := simnet.NewVClock(0)
			ep, err := rt.Dial(ctx, hostNode, "seqlog", ucr.Reliable, clk, 5*time.Second)
			if err != nil {
				log.Fatal(err)
			}
			for r := 0; r < recordsPerWriter; r++ {
				// Claim a slot: fetch-and-add on the ticket word, served
				// entirely by the host's HCA.
				ticket, err := ep.FetchAdd(clk, desc, 0, 1)
				if err != nil {
					log.Fatal(err)
				}
				slot := int(ticket) % slots
				rec := make([]byte, slotSize)
				copy(rec, fmt.Sprintf("ticket=%02d writer=%d rec=%d", ticket, w, r))
				ctr := rt.NewCounter()
				if err := ep.Put(clk, rec, desc, 8+slot*slotSize, ctr); err != nil {
					log.Fatal(err)
				}
				if err := ctx.WaitCounter(clk, ctr, 1, 0); err != nil {
					log.Fatal(err)
				}
				rt.FreeCounter(ctr)
			}
		}(w)
	}
	wg.Wait()

	// A reader pulls the state with one-sided Gets.
	readerNode := nw.AddNode("reader")
	rt := ucr.New(verbs.NewHCA(readerNode, fab, p.HCA), cm, p.UCR)
	ctx := rt.NewContext()
	defer ctx.Destroy()
	clk := simnet.NewVClock(0)
	ep, err := rt.Dial(ctx, hostNode, "seqlog", ucr.Reliable, clk, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	head := make([]byte, 8)
	ctr := rt.NewCounter()
	if err := ep.Get(clk, head, desc, 0, ctr); err != nil {
		log.Fatal(err)
	}
	if err := ctx.WaitCounter(clk, ctr, 1, 0); err != nil {
		log.Fatal(err)
	}
	total := binary.LittleEndian.Uint64(head)
	fmt.Printf("sequencer issued %d tickets to %d writers — every increment via HCA atomics, zero host CPU\n",
		total, writers)
	if total != writers*recordsPerWriter {
		log.Fatalf("lost tickets: %d != %d", total, writers*recordsPerWriter)
	}

	ring := make([]byte, slots*slotSize)
	if err := ep.Get(clk, ring, desc, 8, ctr); err != nil {
		log.Fatal(err)
	}
	if err := ctx.WaitCounter(clk, ctr, 2, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("last records in the shared log (read with one-sided Gets):")
	shown := 0
	for s := 0; s < slots && shown < 6; s++ {
		rec := ring[s*slotSize : (s+1)*slotSize]
		if rec[0] == 0 {
			continue
		}
		end := 0
		for end < len(rec) && rec[end] != 0 {
			end++
		}
		fmt.Printf("  slot %2d: %s\n", s, rec[:end])
		shown++
	}
}
