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
//
// The writers take turns, one record each per round, on the calling
// goroutine, so the output is a function of the program alone.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"

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
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// writer is one client of the log: its own node, runtime, progress
// context and clock.
type writer struct {
	rt  *ucr.Runtime
	ctx *ucr.Context
	clk *simnet.VClock
	ep  *ucr.Endpoint
}

func run(out io.Writer) error {
	p := cluster.ClusterB()
	nw := simnet.NewNetwork()
	fab := nw.AddFabric(p.IB)
	cm := verbs.NewCM(fab)

	// The memory host: owns the window, then does nothing but accept
	// endpoints — every data-path operation bypasses its CPU. Its
	// acceptor is an actor on the fabric's executor, stepped by whichever
	// dial is waiting for it.
	hostNode := nw.AddNode("host")
	hostRT := ucr.New(verbs.NewHCA(hostNode, fab, p.HCA), cm, p.UCR)
	hostMem := make([]byte, 8+slots*slotSize)
	win, err := hostRT.CreateWindow(hostMem, nil)
	if err != nil {
		return err
	}
	desc := win.Desc()

	lis, err := hostRT.Listen("seqlog")
	if err != nil {
		return err
	}
	defer lis.Close()
	hostCtx := hostRT.NewContext()
	defer hostCtx.Destroy()
	hostClk := simnet.NewVClock(0)
	host := fab.Executor().NewActor(func() {
		for {
			req, ok := lis.TryNext(hostClk)
			if !ok {
				return
			}
			if _, err := hostCtx.Accept(req, hostClk); err != nil {
				req.Reject(err)
			}
		}
	})
	defer host.Stop()
	lis.SetOwner(host)

	dial := func(name string) (*writer, error) {
		node := nw.AddNode(name)
		rt := ucr.New(verbs.NewHCA(node, fab, p.HCA), cm, p.UCR)
		ctx, clk := rt.NewContext(), simnet.NewVClock(0)
		ep, err := rt.Dial(ctx, hostNode, "seqlog", ucr.Reliable, clk, 0)
		return &writer{rt: rt, ctx: ctx, clk: clk, ep: ep}, err
	}

	// Writers on separate nodes, racing for tickets round by round.
	const writers = 4
	const recordsPerWriter = 6
	ws := make([]*writer, writers)
	for i := range ws {
		if ws[i], err = dial(fmt.Sprintf("writer%d", i)); err != nil {
			return err
		}
		defer ws[i].ctx.Destroy()
	}
	for r := 0; r < recordsPerWriter; r++ {
		for i, w := range ws {
			// Claim a slot: fetch-and-add on the ticket word, served
			// entirely by the host's HCA.
			ticket, err := w.ep.FetchAdd(w.clk, desc, 0, 1)
			if err != nil {
				return err
			}
			slot := int(ticket) % slots
			rec := make([]byte, slotSize)
			copy(rec, fmt.Sprintf("ticket=%02d writer=%d rec=%d", ticket, i, r))
			ctr := w.rt.NewCounter()
			if err := w.ep.Put(w.clk, rec, desc, 8+slot*slotSize, ctr); err != nil {
				return err
			}
			if err := w.ctx.WaitCounter(w.clk, ctr, 1, 0); err != nil {
				return err
			}
			w.rt.FreeCounter(ctr)
		}
	}

	// A reader pulls the state with one-sided Gets.
	rd, err := dial("reader")
	if err != nil {
		return err
	}
	defer rd.ctx.Destroy()
	head := make([]byte, 8)
	ctr := rd.rt.NewCounter()
	if err := rd.ep.Get(rd.clk, head, desc, 0, ctr); err != nil {
		return err
	}
	if err := rd.ctx.WaitCounter(rd.clk, ctr, 1, 0); err != nil {
		return err
	}
	total := binary.LittleEndian.Uint64(head)
	fmt.Fprintf(out, "sequencer issued %d tickets to %d writers — every increment via HCA atomics, zero host CPU\n",
		total, writers)
	if total != writers*recordsPerWriter {
		return fmt.Errorf("lost tickets: %d != %d", total, writers*recordsPerWriter)
	}

	ring := make([]byte, slots*slotSize)
	if err := rd.ep.Get(rd.clk, ring, desc, 8, ctr); err != nil {
		return err
	}
	if err := rd.ctx.WaitCounter(rd.clk, ctr, 2, 0); err != nil {
		return err
	}
	fmt.Fprintln(out, "last records in the shared log (read with one-sided Gets):")
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
		fmt.Fprintf(out, "  slot %2d: %s\n", s, rec[:end])
		shown++
	}
	return nil
}
