# Test tiers. tier1 is the gate every change must keep green; tier2
# adds vet and the race detector (the cluster's client goroutines take
# turns at a deployment's owner, and mcserver's connection goroutines
# at its process lock).

.PHONY: tier1 tier2 race-datapath determinism golden golden-diff test memcheck mutations check-no-wallclock check-gone check-no-park fuzz-smoke bench-pairs bench-smoke

tier1:
	go build ./...
	go test ./...

tier2:
	go vet ./...
	go test -race ./...

# The subset of tier2 to run after touching the datapath: the race
# detector over the layers every op crosses, the cluster's goroutine
# clients, mcserver's connection goroutines on the one process lock and
# the frozen benchmark's goroutine hand-offs (under two minutes, most of
# it ./benchmark). CI runs tier2, which covers it.
race-datapath:
	go vet ./...
	go test -race ./internal/simnet ./internal/sockstream ./internal/verbs ./internal/ucr ./internal/memcached ./internal/mcclient ./internal/cluster ./cmd/mcserver ./benchmark

# Same seed, same bytes: the benchmark's own reproducibility check (the
# virtual metrics of its single-client workloads must be bit-identical
# across same-seed runs); the two single-client determinism tests twenty
# times under the race detector, where a caller on another goroutine
# could still be racing a server step; the mcbench golden five times in
# one process in shuffled order; every study at GOMAXPROCS=1 against
# the default, byte for byte; and the lossy ud and fleet memcheck sweeps
# twice over each, byte for byte (a dropped reply ends its wait in
# virtual time, so the per-seed record counts and the summed counters
# are functions of the seed; a fleet write settles its owners in ring
# order, so a settle order left to the scheduler fails the cmp).
# -selfcheck also compares host time between its runs: a failure that
# names only a wall_ns_per_op cell is a busy host (rerun it); "NOT
# REPRODUCIBLE" is a bug.
determinism:
	bash benchmark/run.sh -selfcheck
	go test -race -count=20 -run 'TestHistoryDeterminism|TestSingleClientDeterminism' ./internal/memcheck ./internal/cluster
	go test -count=5 -shuffle=on ./cmd/mcbench
	GOMAXPROCS=1 go run ./cmd/mcbench -study all | cmp - cmd/mcbench/testdata/studies.golden
	go run ./cmd/mcbench -study all | cmp - cmd/mcbench/testdata/studies.golden
	for m in ud fleet; do \
		first="$$(mktemp)" && go run ./cmd/mccheck -mode $$m -faults -seeds 10 -v > "$$first" && \
			go run ./cmd/mccheck -mode $$m -faults -seeds 10 -v | cmp - "$$first"; rc=$$?; rm -f "$$first"; \
		[ $$rc -eq 0 ] || exit $$rc; \
	done

# The regression gate is a byte comparison: cmd/mcbench's test runs every
# row of the study table (`mcbench -list`) and compares its text with the
# golden — every number EXPERIMENTS.md prints, at tolerance 0 — and each
# example's test compares what it prints with its testdata/stdout.golden.
# Rewrite them only when an output is meant to move, and list the moved
# cells in the change's CHANGES.md line.
EXAMPLES = quickstart dbcache multiclient faulttolerance sharding onesided

golden:
	go run ./cmd/mcbench -study all > cmd/mcbench/testdata/studies.golden
	for e in $(EXAMPLES); do go run ./examples/$$e > examples/$$e/testdata/stdout.golden || exit 1; done

# The moved-cell list for CHANGES.md: what the tree prints against
# the goldens, as diffs (empty, exit 0, when nothing moved). Run it
# before `make golden`.
golden-diff:
	@rc=0 ; go run ./cmd/mcbench -study all | diff cmd/mcbench/testdata/studies.golden - || rc=1 ; \
	for e in $(EXAMPLES); do go run ./examples/$$e | diff examples/$$e/testdata/stdout.golden - || rc=1; done; exit $$rc

test: tier1 tier2

# The benchmark, parent against working tree in alternating pairs: both
# sides' median and quartiles per metric, the change's pair wins and a
# verdict against BENCHMARK.json's bound, then failed/attempted. PARENT
# is required; WORKLOAD= (empty) runs every workload. Exit 1 when a
# metric is worse than its bound. Reads benchmark/, writes nothing here.
PAIRS ?= 10
SECONDS ?= 15
SEED ?= 42

bench-pairs:
	go run ./cmd/benchpairs -parent $(PARENT) -workload "$(WORKLOAD)" -pairs $(PAIRS) -seconds $(SECONDS) -seed $(SEED)

# Every package benchmark once: a layer benchmark that panics or fails
# fails the run (seconds; CI's tier1 job runs it). Numbers from one
# iteration mean nothing — run `go test -bench` for them.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

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

# No test parks a caller: every goroutine that touches a deployment holds
# its owner (simnet.Executor.Enter), so a wait steps ready actors until
# its mailbox fills and never blocks in Executor.await on the wake
# channel (<-r.wake). The tests of every package but simnet run with
# simnet's coverage, and the target fails if a block holding a
# `<-r.wake` line ran. A capped dial that times out (the dial tests'
# real-time cap) never reaches that receive; simnet's own tests and the
# goroutine acceptors in benchmark/probes.go, which still park, are not
# in the list.
check-no-park:
	@prof="$$(mktemp)"; \
	go test -count=1 -coverpkg=./internal/simnet -coverprofile="$$prof" ./internal/verbs ./internal/ucr ./internal/sockstream ./internal/memcached ./internal/mcclient ./internal/cluster ./internal/bench ./internal/memcheck ./cmd/... ./examples/... . || { rm -f "$$prof"; exit 1; }; \
	lines="$$(grep -n '<-r\.wake' internal/simnet/executor.go | cut -d: -f1 | tr '\n' ' ')"; \
	ran="$$(awk -v lines="$$lines" 'BEGIN { n = split(lines, l, " ") } \
		$$1 ~ /internal\/simnet\/executor\.go:/ && $$3 > 0 { split($$1, a, ":"); split(a[2], r, ","); \
			for (i = 1; i <= n; i++) if (l[i] >= int(r[1]) && l[i] <= int(r[2])) { print $$1; break } }' "$$prof" | sort -u)"; \
	rm -f "$$prof"; \
	if [ -z "$$lines" ]; then echo "check-no-park: no <-r.wake line in internal/simnet/executor.go"; exit 1; fi; \
	if [ -n "$$ran" ]; then echo "a test outside simnet parked in Executor.await:"; echo "$$ran"; exit 1; fi

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
#  - a posted receive is a reservation, so connscale measures every row
#    it prints and the golden runs the whole fleet axis: no fitted memory
#    model, no extrapolated row, no quick fleet axis.
#  - a tag is its own lookup — a counter id, a rendezvous seq and
#    a server endpoint each name their state directly, with no side
#    table keyed by them.
#  - the checker observes what it calls — no observer hook or per-read
#    path probe on the client, no second canonical form, no retry knob the
#    runtime only records, no landing pool or MR index beside the
#    structure that owns the job.
#  - PR 29: every claim the docs make runs — no API without a caller: no
#    script key lister, no summed fault stats, no one-sided directory
#    geometry a caller could pass.
#  - no field without a reader, no knob with one value: no inline send,
#    immediate data or Nagle delay, no cost knob every profile sets alike,
#    no first-server HCA/runtime alias, no unread per-op figure.
#  - every number has one home: no Go benchmark re-running a golden
#    figure or ablation cell, no CSV figure writer, no touch counters
#    nothing prints, no accessor without a caller.
#  - a pool is a ring: no second key→server rule (modula and its FNV
#    hash) and no dead/live index lists beside the ring's membership.
#  - one owner per deployment, and nothing beside it: no mutex or atomic
#    type in verbs, ucr or sockstream beyond the endpoint seeds clones
#    share, no mutex in simnet outside the executor, no lock or atomic in
#    non-test internal/cluster or internal/mcclient (a fleet's membership
#    and a client's pool are read holding the deployment, or by the one
#    goroutine that owns the client), and no session forward or actor
#    claim beside the owner (SessionMux, Session, Actor.Do).
#  - host bytes follow live state: a slab page's host memory is carved
#    with its chunks, so no whole-page buffer and no page-sized window.
#  - each message handled once: a store op books its stripe lock in its
#    own shard hold (no second hold) and no per-op served counter.
#  - the exported surface is the used surface: no RDMA compare-and-swap,
#    no lent-buffer mget, no Zipf hot-fraction view and no sentinel
#    error nothing returns (TestExportedSurfaceIsUsed keeps the rest).
#  - the store is owned, not locked: no mutex or atomic in non-test
#    internal/memcached. A Store's calls are serialised by its owner — a
#    deployment's executor, or mcserver's one process lock — and the
#    stripe locks exist only in virtual time.
define GONE
internal/memcached	^func \(s \*Store\) [A-Z][A-Za-z]*\(key string	func \(s \*Store\) (Set|Get)\(key string	string-keyed engine entry under internal/memcached
internal/memcached	^func (\([a-z]+ \*(Store|Server|ProtoConn)\) )?[A-Za-z]+Bytes\(key \[\]byte|hashKeyBytes|LockWaitBytes|chargeLockBytes	^$$	string/bytes twin under internal/memcached
internal	BeginPostBatch|FlushPosts|queuePost	^$$	UCR post batch under internal/
internal cmd	doShared|CondStorer|FleetConfig|FleetResult|FleetGenConfig|RunFleetScript|formatFleetReport	^$$	session op driver, CondStorer or second fleet harness under internal/ cmd/
internal cmd examples	UCRCredits|clientUCRConfig|DisableRegCache|NoReply|Deploy\.(OpCost|EagerThreshold)|Opts\.(OpCost|EagerThreshold|SRQBuffers)	^$$	Options override of a Profile value or deleted knob under internal/ cmd/ examples/
internal cmd	connScaleFitCounts|ConnScaleModel|PerClientAt|FleetCounts\(	^$$	fitted connscale model or quick fleet axis under internal/ cmd/
internal	rndzOrigin|nextSeq|bumpIf|freeCtrs|pendingSets|wrTabs|staleWins|map\[ucr\.CounterID\]|map\[\*ucr\.Endpoint\]	^$$	side table keyed by a counter id, a rendezvous seq or an endpoint under internal/
internal cmd examples	SetObserver|ObservedOp|LastReadPath|canonObserved|\bAMRetries\b|freeBufs|byMR	^$$	client observer, read-path probe, second canonical form, AMRetries knob or private store under internal/ cmd/ examples/
internal cmd examples	AllKeys|FaultStats|EnableOneSided\([^)]*,	^$$	uncalled API or one-sided directory geometry under internal/ cmd/ examples/
internal cmd examples	InlineMax|ErrInlineLimit|NagleDelay|RTORetries|CoalescedPostOverhead|SrcQPN|\bServer(HCA|RT)\b|NsPerOp	^$$	deleted verbs/socket knob, WC field or unread alias under internal/ cmd/ examples/
internal cmd examples	\b(Inline|Imm)(:|[[:space:]]+(bool|u?int[0-9]*)\b)|\.(Inline|Imm)\b	^$$	inline or immediate-data work-request field under internal/ cmd/ examples/
internal cmd examples *_test.go	func Benchmark(Fig|Ablation)|WriteCSV|TouchHits|TouchMisses|touchHits|touchMisses|^func \([a-z]+ \*(Ring\) Has|Server\) Workers|Store\) Recording|SockTransport\) Conn|QP\) Remote|Conn\) Provider|Fabric\) Faults|FaultInjector\) Config|Fleet\) Size|(Runtime|HCA)\) Node)\(	^$$	golden-cell benchmark, CSV writer, touch counter or uncalled accessor under internal/ cmd/ examples/ or the root tests
internal cmd examples *_test.go	DistModula|DistKetama|\bDistribution\b|\bkeyHash\b|liveIdx	^$$	second key→server rule or live-index list under internal/ cmd/ examples/ or the root tests
internal/verbs internal/ucr internal/sockstream internal/simnet	sync\.(RW)?Mutex|atomic\.[A-Z]	_test\.go:|^internal/simnet/executor\.go:|^internal/simnet/[a-z]+\.go:[0-9]+:.*atomic\.|endpointSeeds|\) seeds\(\)	lock or atomic beneath the deployment owner under internal/verbs, ucr, sockstream or simnet
internal cmd examples *_test.go	splitWriter|postSet|postDelete|settleSet|settleDelete|settleWrite|postWrite|t\.posted\b|posted +\*amOp|lastOp|\bWindow\(\) int	^$$	second op driver (post/settle split, posted slot, last-op victim) or Pipeline.Window under internal/ cmd/ examples/ or the root tests
internal/memcached	PageBytes|pageWindow|pageWins|make\(\[\]byte, slabPageSize\)	^$$	whole-page host backing or page window under internal/memcached
internal/memcached	\blockWait\b|OpsServed	^$$	second lock hold or served counter under internal/memcached
internal/memcached	sync\.|atomic\.	_test\.go:	lock or atomic in the store under internal/memcached
internal/cluster internal/mcclient	sync\.|atomic\.	_test\.go:	lock or atomic beside the deployment owner under internal/cluster or internal/mcclient
internal cmd examples	SessionMux|type Session struct|func \(a \*Actor\) Do\(	^$$	session forward or actor claim beside the deployment owner under internal/ cmd/ examples/
internal cmd examples	CompareSwap|OpAtomicCmpSwap|GetMultiInto|HotFraction|ErrQPDestroyed|ErrNoHandler|ErrBadHandler	^$$	compare-and-swap, lent-buffer mget, Zipf hot fraction or unreturned sentinel error under internal/ cmd/ examples/
internal/verbs	ErrBadKey	^$$	verbs.ErrBadKey under internal/verbs
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
	go test -run '^$$' -fuzz '^FuzzKetamaRing$$' -fuzztime $(FUZZTIME) ./internal/ring
