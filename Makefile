# Test tiers. tier1 is the gate every change must keep green; tier2
# adds vet and the race detector (the mcclient ejection path is
# exercised concurrently).

.PHONY: tier1 tier2 race-datapath determinism golden golden-diff test memcheck mutations check-no-wallclock check-gone fuzz-smoke

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
# across same-seed runs); the two single-client determinism tests twenty
# times under the race detector, where a caller on another goroutine
# could still be racing a server step; the mcbench golden five times in
# one process in shuffled order; every study at GOMAXPROCS=1 against
# the default, byte for byte; and a lossy memcheck sweep twice over,
# byte for byte (a dropped reply ends its wait in virtual time, so the
# per-seed record counts and the summed counters are functions of the
# seed). -selfcheck also compares host time between its runs: a failure
# that names only a wall_ns_per_op cell is a busy host (rerun it); "NOT
# REPRODUCIBLE" is a bug.
determinism:
	bash benchmark/run.sh -selfcheck
	go test -race -count=20 -run 'TestHistoryDeterminism|TestSingleClientDeterminism' ./internal/memcheck ./internal/cluster
	go test -count=5 -shuffle=on ./cmd/mcbench
	GOMAXPROCS=1 go run ./cmd/mcbench -study all -quick | cmp - cmd/mcbench/testdata/studies.golden
	go run ./cmd/mcbench -study all -quick | cmp - cmd/mcbench/testdata/studies.golden
	first="$$(mktemp)" && go run ./cmd/mccheck -mode ud -faults -seeds 10 -v > "$$first" && \
		go run ./cmd/mccheck -mode ud -faults -seeds 10 -v | cmp - "$$first"; rc=$$?; rm -f "$$first"; exit $$rc

# The regression gate is a byte comparison: cmd/mcbench's test runs every
# row of the study table (`mcbench -list`) and compares its text with the
# golden — every number EXPERIMENTS.md prints, at tolerance 0. Rewrite it
# only when a modeled number is meant to move, and list the moved cells
# in EXPERIMENTS.md.
golden:
	go run ./cmd/mcbench -study all -quick > cmd/mcbench/testdata/studies.golden

# The moved-cell list for EXPERIMENTS.md: what the tree prints against
# the golden, as a diff (empty, exit 0, when nothing moved). Run it
# before `make golden`.
golden-diff:
	go run ./cmd/mcbench -study all -quick | diff cmd/mcbench/testdata/studies.golden -

test: tier1 tier2

# Model-checking sweeps (see EXPERIMENTS.md "Model checking the cache"):
# every row of the mode table over a clean fabric, then over a lossy one
# (seconds each since a dead wait ends in virtual time). The table
# (internal/memcheck.Modes; `go run ./cmd/mccheck -list-modes`) says what
# each row arms, which transports it sweeps, and which counters prove
# the sweep drove what it armed — a vacuous sweep fails. One row:
# `go run ./cmd/mccheck -mode <row> [-faults] -seeds N`.
MEMCHECK_SEEDS ?= 50

memcheck:
	go run ./cmd/mccheck -mode all -seeds $(MEMCHECK_SEEDS)
	go run ./cmd/mccheck -mode all -seeds $(MEMCHECK_SEEDS) -faults

# No wait under internal/ may end on the host's clock: only simnet (the
# executor's one capped receive) and the three dial functions that hand
# it a cap for goroutine acceptors may import "time".
check-no-wallclock:
	@bad="$$(grep -rlE --include='*.go' --exclude='*_test.go' '^(import )?[[:space:]]*([A-Za-z_.]+ )?"time"$$' internal \
		| grep -v -e '^internal/simnet/' -e '^internal/verbs/cm.go$$' -e '^internal/ucr/context.go$$' -e '^internal/sockstream/provider.go$$')"; \
	if [ -n "$$bad" ]; then echo "wall clock under internal/:"; echo "$$bad"; exit 1; fi

# What a PR deleted stays deleted. One row per guard, tab-separated: the
# directories it must not come back under, the ERE that names it, an ERE
# of matches that may stay (^$$: none), and what to say. Every .go file
# in scope is searched, tests included.
#  - PR 22: a key is bytes at the engine's boundary — no exported *Store
#    method takes `key string` except the Set/Get adapters kept for
#    benchmark/probes.go, and no string/bytes twin (one hash, one lock
#    wait, one lock charge per key type).
#  - PR 23: a message leaves when it is built — no UCR send-side post
#    batch holding a reply behind the next request's harvest.
#  - PR 24: no client is special — no second op driver for concentrated
#    sessions, no optional conditional-store contract, no second
#    Config/Result/report for the fleet checker.
#  - PR 25: a value has one home — no Options override of a Profile cost,
#    no client UCR config of its own, no knob no caller sets.
define GONE
internal/memcached	^func \(s \*Store\) [A-Z][A-Za-z]*\(key string	func \(s \*Store\) (Set|Get)\(key string	string-keyed engine entry under internal/memcached
internal/memcached	^func (\([a-z]+ \*(Store|Server|ProtoConn)\) )?[A-Za-z]+Bytes\(key \[\]byte|hashKeyBytes|LockWaitBytes|chargeLockBytes	^$$	string/bytes twin under internal/memcached
internal	BeginPostBatch|FlushPosts|queuePost	^$$	UCR post batch under internal/
internal cmd	doShared|CondStorer|FleetConfig|FleetResult|FleetGenConfig|RunFleetScript|formatFleetReport	^$$	session op driver, CondStorer or second fleet harness under internal/ cmd/
internal cmd examples	UCRCredits|clientUCRConfig|DisableRegCache|NoReply|Deploy\.(OpCost|EagerThreshold)|Opts\.(OpCost|EagerThreshold|SRQBuffers)	^$$	Options override of a Profile value or deleted knob under internal/ cmd/ examples/
endef
export GONE

check-gone:
	@printf '%s\n' "$$GONE" | { rc=0; while IFS='	' read -r scope pat keep msg; do \
		bad="$$(grep -rnE --include='*.go' -- "$$pat" $$scope | grep -vE -- "$$keep")"; \
		if [ -n "$$bad" ]; then echo "$$msg:"; echo "$$bad"; rc=1; fi; \
	done; exit $$rc; }

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

FUZZTIME ?= 30s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzTextProtocol$$' -fuzztime $(FUZZTIME) ./internal/memcached
	go test -run '^$$' -fuzz '^FuzzTextCodec$$' -fuzztime $(FUZZTIME) ./internal/memcached
	go test -run '^$$' -fuzz '^FuzzAMCodecs$$' -fuzztime $(FUZZTIME) ./internal/memcached
