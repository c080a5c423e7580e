// Package repro reproduces "Memcached Design on High Performance RDMA
// Capable Interconnects" (Jose et al., ICPP 2011) as a pure-Go system:
// a software InfiniBand verbs layer and socket stacks over a
// virtual-time network, the UCR active-message runtime, a Memcached
// engine with both sockets and UCR frontends, a libmemcached-style
// client, and a benchmark suite regenerating every figure of the
// paper's evaluation.
//
// Start with internal/cluster (New boots a testbed's server, NewClient
// connects a client over any of its transports), DESIGN.md for the
// architecture and the hardware-substitution rationale, and
// EXPERIMENTS.md for paper-vs-measured results. The benchmarks in
// bench_test.go regenerate each figure panel (see also cmd/mcbench).
package repro
