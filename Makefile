GO ?= go
# trace-smoke output files (Chrome trace-event JSON; also the CI artifact).
TRACE_OUT ?= trace-smoke.json
TRACE_SCAN_OUT ?= trace-smoke-scan.json

.PHONY: build test race race-staged chaos scale-smoke fuzz-smoke patterns bench bench-check vet trace-smoke trace-identical trace-identical-storm serve-smoke examples loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-staged runs the staged-execution suites (scheduler, speculation,
# epoch fencing, the worker that runs each task, exchange boundaries, stage
# planner, and the DES/notify primitives under them) race-instrumented at a fixed GOMAXPROCS so
# goroutine interleavings actually happen on 1-CPU runners. The S3 client is
# among them: goroutine workers share one, and the lanes of its request
# window share its counters and link (TestWindowsConcurrentOnOneClient). So
# is everything that touches the session's footer table, which concurrent
# queries of a session — goroutines behind the HTTP service — read and fill.
# -short skips the 1k-worker scale smoke, which runs uninstrumented via
# scale-smoke.
race-staged:
	GOMAXPROCS=4 $(GO) test -race -short ./internal/driver/ ./internal/worker/ ./internal/exchange/ ./internal/stageplan/ ./internal/simclock/ ./internal/awssim/dynamo/ ./internal/awssim/s3/ ./internal/lpq/ ./internal/s3fs/ ./internal/scan/ ./internal/service/

# scale-smoke is the multi-level acceptance point: staged q12 on the DES
# kernel at 512 partitions (a 1k+ worker fleet), checking the resolved
# boundary variants and that the billed S3 requests match the analytic
# request model of the staged protocol integer-exactly, that the leak audit
# finds nothing of the fleet once the kernel drained (the reclaim runs behind
# the result), and both protocols' models on 64 seeded boundary shapes. Uninstrumented: it takes a second or
# two now that the byte path allocates what it encodes, and race mode would
# add no interleaving coverage the -short race suites don't already have.
scale-smoke:
	$(GO) test -run 'TestStagedQ12ScaleSmoke|TestMultiLevelRequestsMatchModel|TestSealedBoundaryMatchesDriverless' -v -timeout 10m ./internal/driver/ ./internal/exchange/

# fuzz-smoke fuzzes the eleven parsers of outside bytes, the scan over lpq
# bytes, and the differential plan harness, for five seconds each from the
# seed corpora under their testdata/fuzz: the exchange's key codec
# (a key or a typed error, and parse inverts String), its seal-manifest
# decoder (refs or a typed error for any round, no allocation the bytes
# cannot back, and AppendCommit → decode round-trips), its ready-marker
# splitter (a consumer's marker into one manifest per input: subslices that
# rebuild the value, or a typed error, never more manifests than the bytes
# hold, and AppendMarker → SplitMarker round-trips), the lpq reader
# (OpenReader + ReadAll: a typed error or a valid chunk, never a panic, no
# allocation the input cannot back), its bounded decoder of whole files
# (ReadFiles, the one every worker, result and cache decode goes through: a
# typed error or a valid chunk within the bound, never more allocated than
# the bound plus what the bytes back), the scan over the same bytes
# (ScanFiltered with a pushed-down filter: a typed error or rows a full read
# and the filter also yield, never a panic), the fault-plan parser (a typed error
# or a plan that marshal → ParsePlan leaves unchanged), the SQL parser (an
# error or a plan that MarshalPlan → UnmarshalPlan leaves unchanged), the
# payload decoder of internal/worker (an error or a task whose counts are a
# fleet's, whose children are other workers of it, each named once, whose
# scan files' shipped footers decode and whose broadcast tables fit the
# engine budget, never a panic and never an S3 request), the driver's
# result-queue body (receipt on a fixed two-stage scheduler: discarded,
# recorded or a typed StageFailure, never a panic), its epoch item (rejected,
# or accepted and round-tripping through formatEpochValue) and the
# service's POST /query body (400 or 413, or a parsed query handed to a
# runner that runs nothing, never a panic); FuzzGeneratedPlan runs any seed's
# generated case (internal/driver's genCase) through runCase, which holds it
# to single-node engine.Execute, its own DES replay and a clean substrate.
# Last, the engine's three property tests (the hash aggregate against a
# scalar fold, the hash join against a nested loop, the sorted and limited
# collect against sort.SliceStable over rows as []any) run 7 500 random cases
# each where go test runs 150; the aggregate's also holds SplitAggregate's
# partial over 1–4 workers and its final to the single node, bit for bit,
# overflow included: a BIGINT SUM out of range fails typed on both.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBoundaryKey -fuzztime=5s ./internal/exchange/
	$(GO) test -run=NONE -fuzz=FuzzSealManifest -fuzztime=5s ./internal/exchange/
	$(GO) test -run=NONE -fuzz=FuzzReadyMarker -fuzztime=5s ./internal/exchange/
	$(GO) test -run=NONE -fuzz=FuzzOpenReadAll -fuzztime=5s ./internal/lpq/
	$(GO) test -run=NONE -fuzz=FuzzReadFiles -fuzztime=5s ./internal/lpq/
	$(GO) test -run=NONE -fuzz=FuzzScanFiltered -fuzztime=5s ./internal/scan/
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=5s ./internal/awssim/faults/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/sqlfe/
	$(GO) test -run=NONE -fuzz=FuzzWorkerPayload -fuzztime=5s ./internal/worker/
	$(GO) test -run=NONE -fuzz=FuzzResultMessage -fuzztime=5s ./internal/driver/
	$(GO) test -run=NONE -fuzz=FuzzEpochValue -fuzztime=5s ./internal/driver/
	$(GO) test -run=NONE -fuzz=FuzzQueryBody -fuzztime=5s ./internal/service/
	$(GO) test -run=NONE -fuzz=FuzzGeneratedPlan -fuzztime=5s ./internal/driver/
	$(GO) test -run 'TestPropertyAggregatesMatchScalar|TestPropertyJoinMatchesNestedLoop|TestPropertyCollectMatchesSorted' ./internal/engine/ -quickchecks 5000

# chaos runs the deterministic fault-injection suites race-instrumented:
# the injector/resilience unit tests, the fault rule every service's requests
# go through (simenv's TestInjectedFaultRule), the per-service fault tests, the
# driver chaos acceptance tests (staged q12 under a seeded fault storm must
# replay exactly and still produce the fault-free answer), the reclaim that
# runs behind a query's result or error, and fails without failing it
# (TestReclaim*), and the generated
# cases that draw a fault plan or a recovery scenario — stalled workers, an
# aborted run's zombie, concurrent queries (TestGeneratedPlans' seed=N-faults,
# -stall, -zombie and -concurrent subtests).
chaos:
	GOMAXPROCS=4 $(GO) test -race ./internal/awssim/faults/ ./internal/resilience/
	GOMAXPROCS=4 $(GO) test -race \
		-run 'Chaos|Injected|ClientRetries|ClientBudget|EpochSweep|SingleScopeDuplicate|KeyedDeleteListsNothing|Reclaim' \
		./internal/awssim/simenv/ ./internal/awssim/s3/ ./internal/awssim/sqs/ \
		./internal/awssim/dynamo/ ./internal/awssim/lambdasvc/ ./internal/driver/
	GOMAXPROCS=4 $(GO) test -race -run 'TestGeneratedPlans/faults|stall|zombie|concurrent' ./internal/driver/

# patterns fails when a test selection in this Makefile or the CI workflow
# selects nothing: each |-alternative of every -run, -fuzz and -bench pattern
# (its top level, before any /) must match a name `go test -list` prints.
# Comments and CI step names are not read; -run=NONE, which selects nothing
# on purpose, is exempt.
patterns:
	@names=$$(mktemp); trap 'rm -f "$$names"' EXIT; \
	$(GO) test -list . ./... | grep -E '^(Test|Fuzz|Benchmark|Example)' > "$$names"; \
	grep -hvE '^[[:space:]]*(#|(- )?name:)' Makefile .github/workflows/ci.yml | \
		grep -oE -- "-(run|fuzz|bench)[= ]('[^']*'|[^ ]+)" | \
		sed -E "s/^-(run|fuzz|bench)[= ]//; s/'//g; s|/.*||" | tr '|' '\n' | grep -vx NONE | sort -u | \
		{ bad=0; while read -r alt; do \
			grep -qE -- "$$alt" "$$names" || { echo "patterns: '$$alt' matches no test"; bad=1; }; \
		done; exit $$bad; } || exit 1; \
	echo "patterns: every test selection matches a test"

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines per directory of the code proper, and
# their total: the number a simplicity PR is held to.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

bench:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/engine/ ./internal/scan/ ./internal/lpq/ .

# bench-check keeps the repository's benchmark (bench/, a Go module of its
# own that the root `go test ./...` does not reach) building and honest: its
# unit tests, then three tiny end-to-end runs through bench/run.sh — plans with
# exchange boundaries under DES and on goroutine workers (shuffle_local, the
# only checked run of the staged path, its keyed cleanup included, on
# simenv.Immediate) and a plan without one; all come from the one planner,
# through RunSQLStaged and RunSQL — each exiting non-zero when any result
# differs from the single-node reference.
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload staged_des --scale tiny --seconds 1
	bash bench/run.sh --workload shuffle_local --scale tiny --seconds 1
	bash bench/run.sh --workload scan_local --scale tiny --seconds 1

# serve-smoke boots the resident query service end to end in both modes
# (goroutine workers in real time; DES virtual time with request batching),
# runs the fresh/cached/invalidate query sequence over HTTP, and exits
# non-zero on any divergence. The CI face of cmd/lambada-serve.
serve-smoke:
	$(GO) run ./cmd/lambada-serve -smoke -sf 0.002 -files 4
	$(GO) run ./cmd/lambada-serve -smoke -mode des -sf 0.002 -files 4

# examples builds and runs the four programs under examples/ — the public
# API's smallest end-to-end uses — and fails if one exits non-zero.
examples:
	for ex in quickstart tpch dataflow exchange; do $(GO) run ./examples/$$ex || exit 1; done

# trace-smoke runs two traced queries under the DES kernel, exports each
# one's Chrome trace-event JSON, and validates it against the schema subset
# the obs package emits: every phase of a worker invocation on its
# invocation's track, inside it, and overlapping none of its other phases.
# The first is q12 with its ORDERS broadcast; the second a multi-file scan,
# q1 with both files on one worker (-files 2 -f 2), whose row groups share
# one request window: its s3.getrange op spans, one per file, overlap inside
# one execute phase. Both files are uploaded as CI artifacts.
trace-smoke:
	$(GO) run ./cmd/lambada -mode des -query q12 -sf 0.002 -files 4 \
		-profile -trace-out $(TRACE_OUT)
	$(GO) run ./cmd/tracecheck $(TRACE_OUT)
	$(GO) run ./cmd/lambada -mode des -query q1 -sf 0.01 -files 2 -f 2 \
		-profile -trace-out $(TRACE_SCAN_OUT)
	$(GO) run ./cmd/tracecheck $(TRACE_SCAN_OUT)

# trace-identical BASE=<rev> is how a driver change that claims to preserve
# behaviour is checked, where the benchmark cannot vouch for it (speculation
# and relaunch are off in every workload): cmd/lambada is built from BASE (a
# `git archive` of it in a temp dir) and from the working tree, and both run
# the same seeded DES query. Each half gives its first verdict on the result
# rows (the output above the "workers:" line), so a change that moves the
# modeled clock on purpose can still prove the answer:
#   trace-identical        q12 at 256 partitions, fault-free (260 workers in 3
#                          stages: two 2-worker scans into single-round
#                          boundaries over one shard bucket, and the join;
#                          against a base that plans otherwise this prints
#                          "rows identical" and then differs, as it must).
#                          First "rows identical"; then both sides' fleet,
#                          stage and cost lines, for a change that means to
#                          move them to cite;
#                          then the Chrome trace exports and the printed
#                          reports (minus the last line, which names the trace
#                          file) must be byte-identical, or it exits non-zero.
#                          Against a base from before the phase spans both
#                          differ by design (phase spans in the trace, the one
#                          stage table and the folded critical path in the
#                          report); the workers: and query cost: lines must
#                          not. Then the broadcast q12 (ORDERS pinned into
#                          every LINEITEM worker's payload and read in its
#                          first request window), fault-free: its rows, trace
#                          and report are held to the same byte identity.
#   trace-identical-storm  the same at 30 partitions (34 workers; 64 before
#                          PR 24) under the checked-in fault storm
#                          with speculation and a 2 s liveness cap, then the
#                          broadcast q12 (ORDERS read by every LINEITEM worker
#                          in its first request window) under the same storm,
#                          its seed set to 5: at the plan's own seed only a
#                          cold spike lands on that query's few requests, at 5
#                          two of its workers' GETs fail once and an Invoke
#                          crashes.
#                          Fails only if either query's result rows differ,
#                          and prints both sides' fleet, retry and cost lines
#                          to be read, not gated.
TRACE_Q12 = -mode des -profile -query q12 -broadcast-limit -1 -sf 0.002 -files 4
TRACE_STORM = -partitions 30 -speculate -max-stage-wait 2s -fault-plan cmd/lambada/testdata/storm.json
define TRACE_BUILD
test -n "$(BASE)" || { echo "usage: make $@ BASE=<rev>"; exit 2; }; \
set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/base"; \
git archive $(BASE) | tar -x -C "$$tmp/base"; \
(cd "$$tmp/base" && $(GO) build -o "$$tmp/lambada.base" ./cmd/lambada); \
$(GO) build -o "$$tmp/lambada.head" ./cmd/lambada
endef
# TRACE_ROWS LINES=<regexp> compares the result rows of the two sides' .out
# files and prints the report lines matching LINES from each.
define TRACE_ROWS
for side in base head; do \
	sed '/^workers:/,$$d' "$$tmp/$$side.out" > "$$tmp/$$side.rows"; \
	echo "$$side:"; grep -E '$(LINES)' "$$tmp/$$side.out"; \
done; \
cmp "$$tmp/base.rows" "$$tmp/head.rows"; \
echo "$@: rows identical to $(BASE)"
endef

# TRACE_SAME runs both sides with the arguments $(1), each exporting its
# Chrome trace, compares their rows (TRACE_ROWS), then their traces and
# their reports minus the last line, which names the trace file.
define TRACE_SAME
for side in base head; do \
	"$$tmp/lambada.$$side" $(1) -trace-out "$$tmp/$$side.json" > "$$tmp/$$side.out"; \
	sed -i '$$d' "$$tmp/$$side.out"; \
done; \
$(TRACE_ROWS); \
cmp "$$tmp/base.json" "$$tmp/head.json"; \
cmp "$$tmp/base.out" "$$tmp/head.out"
endef

trace-identical: LINES = ^(workers:|  +(stage|[0-9]+(rg)?) |query cost:|traced cost:)
trace-identical:
	@$(TRACE_BUILD); \
	$(call TRACE_SAME,$(TRACE_Q12) -partitions 256); \
	echo "$@: trace and report byte-identical to $(BASE)"; \
	echo "broadcast q12:"; \
	$(call TRACE_SAME,-mode des -profile -query q12 -sf 0.002 -files 4); \
	echo "$@: broadcast trace and report byte-identical to $(BASE)"

trace-identical-storm: LINES = ^(workers|retries|query cost):
trace-identical-storm:
	@$(TRACE_BUILD); \
	for side in base head; do \
		"$$tmp/lambada.$$side" $(TRACE_Q12) $(TRACE_STORM) > "$$tmp/$$side.out"; \
	done; \
	$(TRACE_ROWS); \
	echo "broadcast q12:"; \
	for side in base head; do \
		"$$tmp/lambada.$$side" -mode des -profile -query q12 -sf 0.002 -files 4 $(TRACE_STORM) -fault-seed 5 > "$$tmp/$$side.out"; \
	done; \
	$(TRACE_ROWS)
