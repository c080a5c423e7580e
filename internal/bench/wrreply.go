package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/memcached"
)

// The write-reply study: the same pipelined closed-loop GET sweep as
// the pipeline study, run twice per cell — once on the plain AM
// reply path and once with the write-based reply path armed — so the
// table locates the eager/rendezvous crossover empirically. Below the
// server's 1 KB crossover the two columns coincide (the armed client
// still advertises windows, the server still answers eagerly); between
// the crossover and the client's 64 KB reply slot the armed column is
// served by RDMA writes sourced straight from the slab chunk; past the
// slot both columns fall back to the rendezvous read.

// WriteReplyTransport labels the armed column (the plain column keeps
// the UCR-IB label: its cells are the pipeline study's).
const WriteReplyTransport = "UCR-IB+WR"

// WriteReplySizes is the value-size axis: one point below the server
// crossover, the 4 KB cell the half-window flush regressed, the largest
// slot-resident value, and one far past the slot (rendezvous fallback;
// 512 KB is the largest value the default slab classes can store).
var WriteReplySizes = []int{64, 1024, 4096, 64 << 10, 512 << 10}

// WriteReplySweep measures every (depth, size) cell in both modes on
// UCR-IB, each on a fresh single-server deployment. Cells whose reply
// lands inside the write band (past the server crossover, within the
// client slot) are vacuity-checked: an armed run that never posted a
// write reply measured the wrong path.
func WriteReplySweep(p *cluster.Profile, depths, sizes []int, cfg RunConfig) ([]PipelinePoint, error) {
	var out []PipelinePoint
	for _, size := range sizes {
		for _, armed := range []bool{false, true} {
			for _, depth := range depths {
				c := cfg
				c.Deploy.WriteReplies = armed
				pt, err := pipelinePoint(p, cluster.UCRIB, depth, size, c)
				if err != nil {
					return nil, fmt.Errorf("bench: wrreply armed=%v depth=%d size=%d: %w", armed, depth, size, err)
				}
				if armed {
					pt.Transport = WriteReplyTransport
					if inWriteBand(size) && pt.WriteReplies == 0 {
						return nil, fmt.Errorf("bench: wrreply depth=%d size=%d: armed sweep never posted a write reply (vacuous cell)", depth, size)
					}
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// inWriteBand reports whether a GET reply for a value of this size is
// eligible for the write path under the default server crossover (1 KB,
// reply header included) and the default 64 KB client reply slot.
func inWriteBand(size int) bool {
	return memcached.GetWSlotHdrLen+size > 1<<10 && size <= 64<<10
}
