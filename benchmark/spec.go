package main

import "repro/internal/cluster"

// rounds is how many counted rounds every run has. A round is a fresh
// deployment — built, dialed, populated and warmed up, which is one
// setup_s sample — then Ops/rounds measured ops, which is one
// wall_ns_per_op sample. Starting every round from a fresh deployment
// keeps rounds comparable on the seed, where host cost per op and heap
// grow with the number of ops a multi-client deployment has served
// (README, seed findings). Everything that is counted comes from these
// rounds; --seconds only adds rounds that give host-time samples.
const rounds = 15

// warmupOps is issued per client after populate and before timing, so
// transport op pools, landing buffers and server worker scratch have
// reached their steady size (two 128-op windows).
const warmupOps = 256

type kind int

const (
	kindBlocking  kind = iota // mcclient.Client Get/Set, one op in flight per client
	kindPipelined             // mcclient.Pipeline sliding window on one connection
	kindFleet                 // cluster.FleetClient over a ring of servers
)

// workload is one closed-loop traffic shape. Every simulated client is
// a caller that waits for its reply before issuing the next request
// (memslap-style, the paper's §VI method); multi-client workloads are
// stepped round-robin from the one driver goroutine.
type workload struct {
	Name      string
	Why       string
	Transport cluster.Transport
	Kind      kind
	Clients   int
	Depth     int // pipeline window (kindPipelined)
	Servers   int // fleet members (kindFleet)
	ValueSize int
	Keys      int
	Zipf      float64 // key popularity exponent; 0 = uniform
	SetPct    int     // SETs per 100 ops
	// FixedMix is the paper's Fig 5b schedule: SetPct SETs then the GETs
	// of each 100, keys round-robin, no random draws.
	FixedMix bool
	Ops      int // total measured ops of the counted rounds (all clients)
}

var workloads = []workload{
	{
		Name:      "ucr_small_d1",
		Why:       "1 blocking UCR client, 64 B, 10 SET then 90 GET per 100: per-message fixed costs do all the work and bytes almost none; model_get_mean_us is the paper's Fig 4 small-message latency",
		Transport: cluster.UCRIB, Kind: kindBlocking, Clients: 1,
		ValueSize: 64, Keys: 1024, SetPct: 10, FixedMix: true, Ops: 2_000_000,
	},
	{
		Name:      "ucr_get4k_w4",
		Why:       "1 UCR connection, Pipeline(4) sliding window, 100% GET of 4 KB into lent buffers: copies, link serialization and doorbell/CQ batching do the work; a fixed-cost saving shows little here",
		Transport: cluster.UCRIB, Kind: kindPipelined, Clients: 1, Depth: 4,
		ValueSize: 4096, Keys: 1024, Ops: 2_000_000,
	},
	{
		Name:      "ipoib_mix1k_d1",
		Why:       "1 blocking IPoIB sockets client, 1 KB, 90/10 GET/SET by seeded draw: sockstream + text protocol + copy-under-lock sets and no verbs/UCR code, so RDMA-side changes must not move it",
		Transport: cluster.IPoIB, Kind: kindBlocking, Clients: 1,
		ValueSize: 1024, Keys: 1024, SetPct: 10, Ops: 1_000_000,
	},
	{
		Name:      "ucr_fanin16_zipf",
		Why:       "16 blocking UCR clients on one server, 64 B, 90/10, Zipf(0.99) over 4096 shared keys (paper Fig 6): server HCA, worker loop and hot stripes set throughput while client costs overlap",
		Transport: cluster.UCRIB, Kind: kindBlocking, Clients: 16,
		ValueSize: 64, Keys: 4096, Zipf: 0.99, SetPct: 10, Ops: 16 * 100_000,
	},
	{
		Name:      "fleet4_r2_mix",
		Why:       "2 fleet clients over 4 servers with R=2, 256 B, 80/20: the only workload running ring lookup, lazy conn map and write-through to two owners, so a single-server gain that taxes routed ops shows",
		Transport: cluster.UCRIB, Kind: kindFleet, Clients: 2, Servers: 4,
		ValueSize: 256, Keys: 4096, SetPct: 20, Ops: 2 * 50_000,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric names one reported number. Units say which clock a timing is
// on: ns/us/s are host time of the Go code; vns/vus are virtual time
// charged by the cost model (what the paper plots), and kop/vs is
// thousands of ops per virtual second.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metric{
	{"model_ktps", "kop/vs", "higher", 0.05},
	{"model_get_mean_us", "vus", "lower", 0.05},
	{"wall_ns_per_op", "ns", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced-run metrics; the prefix before the first
// dot is the package (layer) the number belongs to.
var perLayer = []metric{
	{Name: "simnet.deliver_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.deliver_model_ns", Unit: "vns", Better: "lower"},
	{Name: "simnet.resource_acquire_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.resource_backfill_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.mailbox_handoff_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.link_busy_frac", Unit: "frac", Better: "lower"},

	{Name: "verbs.post_send_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.post_send_model_ns", Unit: "vns", Better: "lower"},
	{Name: "verbs.post_send_n8_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.poll_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.poll_model_ns", Unit: "vns", Better: "lower"},
	{Name: "verbs.pingpong_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.pingpong_model_ns", Unit: "vns", Better: "lower"},
	{Name: "verbs.pingpong_allocs", Unit: "count", Better: "lower"},
	{Name: "verbs.rdma_read4k_model_ns", Unit: "vns", Better: "lower"},
	{Name: "verbs.hca_send_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "verbs.hca_recv_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "verbs.retransmits", Unit: "count", Better: "lower"},

	{Name: "ucr.am_rtt_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "ucr.am_rtt_model_ns", Unit: "vns", Better: "lower"},
	{Name: "ucr.am_rtt_allocs", Unit: "count", Better: "lower"},
	{Name: "ucr.self_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "ucr.self_model_ns", Unit: "vns", Better: "lower"},
	{Name: "ucr.ams_per_op", Unit: "count", Better: "lower"},
	{Name: "ucr.acks_per_op", Unit: "count", Better: "lower"},
	{Name: "ucr.rdma_reads_per_op", Unit: "count", Better: "lower"},
	{Name: "ucr.batched_drains_per_op", Unit: "count", Better: "higher"},
	{Name: "ucr.regcache_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "ucr.recv_buffer_bytes_per_conn", Unit: "B", Better: "lower"},

	{Name: "sockstream.rtt_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "sockstream.rtt_model_ns", Unit: "vns", Better: "lower"},
	{Name: "sockstream.rtt_allocs", Unit: "count", Better: "lower"},
	{Name: "sockstream.retransmits", Unit: "count", Better: "lower"},

	{Name: "memcached.store_get_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "memcached.store_set_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "memcached.store_get_allocs", Unit: "count", Better: "lower"},
	{Name: "memcached.store_set_allocs", Unit: "count", Better: "lower"},
	{Name: "memcached.am_codec_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "memcached.text_serve_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "memcached.text_serve_allocs", Unit: "count", Better: "lower"},
	{Name: "memcached.serve_self_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "memcached.serve_self_model_ns", Unit: "vns", Better: "lower"},
	{Name: "memcached.lock_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "memcached.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "memcached.evictions", Unit: "count", Better: "lower"},

	{Name: "mcclient.client_self_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "mcclient.transport_self_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "mcclient.transport_self_model_ns", Unit: "vns", Better: "lower"},
	{Name: "mcclient.write_reply_hits_per_op", Unit: "count", Better: "higher"},

	{Name: "ring.lookup_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.owners2_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.owners2_allocs", Unit: "count", Better: "lower"},

	{Name: "cluster.fleet_self_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.fleet_primary_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "cluster.fleet_repairs", Unit: "count", Better: "lower"},
	{Name: "cluster.fleet_downs", Unit: "count", Better: "lower"},
	{Name: "cluster.dial_model_us", Unit: "vus", Better: "lower"},
	{Name: "cluster.paper_get4k_err_frac", Unit: "frac", Better: "lower"},
	{Name: "cluster.paper_tps16_err_frac", Unit: "frac", Better: "lower"},

	{Name: "benchmark.model_get_p50_us", Unit: "vus", Better: "lower"},
	{Name: "benchmark.model_get_p999_us", Unit: "vus", Better: "lower"},
	{Name: "benchmark.model_set_p50_us", Unit: "vus", Better: "lower"},
	{Name: "benchmark.model_set_p999_us", Unit: "vus", Better: "lower"},
	{Name: "benchmark.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "benchmark.unattributed_wall_ns", Unit: "ns", Better: "lower"},
	{Name: "benchmark.unattributed_model_ns", Unit: "vns", Better: "lower"},
}
