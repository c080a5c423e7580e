# Test tiers. tier1 is the gate every change must keep green; tier2
# adds vet and the race detector (the mcclient ejection path is
# exercised concurrently).

.PHONY: tier1 tier2 race-datapath determinism test perfgate mutations list-mutations check-ci-modes fuzz-smoke

tier1:
	go build ./...
	go test ./...

tier2:
	go vet ./...
	go test -race ./...

# The quick subset of tier2 to run after touching the datapath: the race
# detector over the layers every op crosses (20 s against two minutes).
# CI runs tier2, which covers it.
race-datapath:
	go vet ./...
	go test -race ./internal/simnet ./internal/sockstream ./internal/memcached ./internal/mcclient

# Same seed, same bytes: the benchmark's own reproducibility check (the
# virtual metrics of its single-client workloads must be bit-identical
# across same-seed runs) and the three determinism tests, twenty times
# each — under the race detector where a caller on another goroutine
# could still be racing a server step. -selfcheck also compares host
# time between its runs: a failure that names only a wall_ns_per_op cell
# is a busy host (rerun it); "NOT REPRODUCIBLE" is a bug.
determinism:
	bash benchmark/run.sh -selfcheck
	go test -race -count=20 -run 'TestHistoryDeterminism|TestSingleClientDeterminism' ./internal/memcheck ./internal/cluster
	go test -count=20 -run TestFigureTablesBitIdentical ./internal/bench

test: tier1 tier2

# Model-checking sweeps (see EXPERIMENTS.md "Model checking the cache"):
# `make memcheck-<mode>` sweeps one row of the mode table over a clean
# fabric, `make memcheck-<mode>-lossy` over a lossy one. The table
# (internal/memcheck.Modes; `go run ./cmd/mccheck -list-modes`) says what
# each row arms, which transports it sweeps, and which counters prove
# the sweep drove what it armed — a vacuous sweep fails.
MEMCHECK_SEEDS ?= 50

memcheck-%:
	go run ./cmd/mccheck -mode $(*:-lossy=) $(if $(filter %-lossy,$*),-faults) -seeds $(MEMCHECK_SEEDS)

# The CI memcheck matrix must list exactly the table's rows.
check-ci-modes:
	@want="$$(go run ./cmd/mccheck -list-modes | tr '\n' ' ' | sed 's/ $$//')"; \
	have="$$(sed -n 's/^ *mode: \[\(.*\)\]$$/\1/p' .github/workflows/ci.yml | tr -d ',')"; \
	if [ "$$want" != "$$have" ]; then \
		echo "ci.yml memcheck matrix [$$have] != mode table [$$want]"; exit 1; \
	fi

# Checker validation: every seeded store mutation must be caught.
MUTATIONS = mut_append_nocas mut_get_skip_expiry mut_cas_ignore_id \
            mut_delete_noop mut_add_clobbers mut_proto_drop_flags \
            mut_onesided_stale mut_srq_misroute mut_ud_dup_ack \
            mut_wrreply_stale mut_ring_stale mut_replica_skip

mutations:
	@for m in $(MUTATIONS); do \
		echo "== $$m"; \
		go run -tags $$m ./cmd/mccheck -seeds 10 -expect-violation || exit 1; \
	done

# The mutation list as a JSON array (the CI mutation matrix reads it).
list-mutations:
	@printf '["%s"]\n' "$$(echo $(MUTATIONS) | sed 's/ /","/g')"

FUZZTIME ?= 30s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzTextProtocol$$' -fuzztime $(FUZZTIME) ./internal/memcached
	go test -run '^$$' -fuzz '^FuzzTextCodec$$' -fuzztime $(FUZZTIME) ./internal/memcached
	go test -run '^$$' -fuzz '^FuzzAMCodecs$$' -fuzztime $(FUZZTIME) ./internal/memcached

# Perf-regression gate: a quick mcbench run (trimmed pipeline +
# connection-scaling sweeps) compared against the checked-in BENCH_*
# trajectory. Tolerances (see cmd/mcgate flags for the full semantics):
#   throughput  -ktps-tol 0.10  — fail if fresh KTPS < baseline x 0.90
#   allocations -alloc-tol 0.9  — fail if fresh allocs/op > baseline + 0.9
#                                 (any ADDED per-op allocation is +1.0 and fails;
#                                 amortized pool-growth noise stays under ~0.8)
#   memory      -mem-tol  0.10  — fail if fresh bytes > baseline x 1.10
# BENCH_4/BENCH_7 pin the pre-batching trajectory (so the gate also
# proves the event-loop server never dips below the old serving path);
# BENCH_8 pins the batched loop's own throughput AND its allocs/op, the
# baseline that catches a quiet return of per-op allocation; BENCH_9
# pins the write-based reply path (gated by the wrreply quick sweep);
# BENCH_10 pins the fleet cell (the quick suite runs the N=10 fleet
# sweep, so a regression in the replicated path fails here alongside
# the BENCH_8/BENCH_9 single-server gates).
perfgate:
	go run ./cmd/mcbench -quick -json | \
	go run ./cmd/mcgate -baseline BENCH_4.json -baseline BENCH_7.json -baseline BENCH_8.json -baseline BENCH_10.json
	go run ./cmd/mcbench -wrreply -quick -ops 300 -json | \
	go run ./cmd/mcgate -baseline BENCH_9.json
