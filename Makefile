GO ?= go
# trace-smoke output file (Chrome trace-event JSON; also the CI artifact).
TRACE_OUT ?= trace-smoke.json

.PHONY: build test race race-staged chaos scale-smoke fuzz-smoke bench bench-check vet trace-smoke trace-identical trace-identical-storm serve-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-staged runs the staged-execution suites (scheduler, speculation,
# epoch fencing, exchange boundaries, stage planner, and the DES/notify
# primitives under them) race-instrumented at a fixed GOMAXPROCS so
# goroutine interleavings actually happen on 1-CPU runners. The S3 client is
# among them: goroutine workers share one, and the lanes of its request
# window share its counters and link (TestWindowsConcurrentOnOneClient). So
# is everything that touches the session's footer table, which concurrent
# queries of a session — goroutines behind the HTTP service — read and fill.
# -short skips the 1k-worker scale smoke, which runs uninstrumented via
# scale-smoke.
race-staged:
	GOMAXPROCS=4 $(GO) test -race -short ./internal/driver/ ./internal/exchange/ ./internal/stageplan/ ./internal/simclock/ ./internal/awssim/dynamo/ ./internal/awssim/s3/ ./internal/lpq/ ./internal/s3fs/ ./internal/scan/ ./internal/service/

# scale-smoke is the multi-level acceptance point: staged q12 on the DES
# kernel at 512 partitions (a 1k+ worker fleet), checking the resolved
# boundary variants and that the billed S3 requests match the analytic
# request model integer-exactly. Uninstrumented: it takes a second or two
# now that the byte path allocates what it encodes, and race mode would add
# no interleaving coverage the -short race suites don't already have.
scale-smoke:
	$(GO) test -run 'TestStagedQ12ScaleSmoke|TestMultiLevelRequestsMatchModel' -v -timeout 10m ./internal/driver/ ./internal/exchange/

# fuzz-smoke fuzzes the five parsers of outside bytes for five seconds each
# from the seed corpora under their testdata/fuzz: the exchange's key codec
# (a key or a typed error, and parse inverts String), the lpq reader
# (OpenReader + ReadAll: a typed error or a valid chunk, never a panic, no
# allocation the input cannot back), the fault-plan parser (a typed error
# or a plan that Marshal → ParsePlan leaves unchanged), the SQL parser (an
# error or a plan that MarshalPlan → UnmarshalPlan leaves unchanged) and the
# worker's payload decoder (an error or a task whose counts are a fleet's and
# whose broadcast tables fit the engine budget, never a panic).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBoundaryKey -fuzztime=5s ./internal/exchange/
	$(GO) test -run=NONE -fuzz=FuzzOpenReadAll -fuzztime=5s ./internal/lpq/
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=5s ./internal/awssim/faults/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/sqlfe/
	$(GO) test -run=NONE -fuzz=FuzzWorkerPayload -fuzztime=5s ./internal/driver/

# chaos runs the deterministic fault-injection suites race-instrumented:
# the injector/resilience unit tests, the per-service fault tests, and the
# driver chaos acceptance tests (staged q12 under a seeded fault storm must
# replay exactly and still produce the fault-free answer).
chaos:
	GOMAXPROCS=4 $(GO) test -race ./internal/awssim/faults/ ./internal/resilience/
	GOMAXPROCS=4 $(GO) test -race \
		-run 'Chaos|Injected|ClientRetries|ClientBudget|EpochSweep|SingleScopeDuplicate' \
		./internal/awssim/s3/ ./internal/awssim/sqs/ ./internal/awssim/dynamo/ \
		./internal/awssim/lambdasvc/ ./internal/driver/

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
# unit tests, then two tiny end-to-end runs through bench/run.sh — a plan with
# exchange boundaries and one without; both come from the one planner, through
# RunSQLStaged and RunSQL — each exiting non-zero when any result differs from
# the single-node reference.
bench-check:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload staged_des --scale tiny --seconds 1
	bash bench/run.sh --workload scan_local --scale tiny --seconds 1

# serve-smoke boots the resident query service end to end in both modes
# (goroutine workers in real time; DES virtual time with request batching),
# runs the fresh/cached/invalidate query sequence over HTTP, and exits
# non-zero on any divergence. The CI face of cmd/lambada-serve.
serve-smoke:
	$(GO) run ./cmd/lambada-serve -smoke -sf 0.002 -files 4
	$(GO) run ./cmd/lambada-serve -smoke -mode des -sf 0.002 -files 4

# trace-smoke runs a traced staged query under the DES kernel, exports the
# Chrome trace-event JSON, and validates it against the schema subset the
# obs package emits. The file is uploaded as a CI artifact.
trace-smoke:
	$(GO) run ./cmd/lambada -mode des -exchange -query q12 -sf 0.002 -files 4 \
		-profile -trace-out $(TRACE_OUT)
	$(GO) run ./cmd/tracecheck $(TRACE_OUT)

# trace-identical BASE=<rev> is how a driver change that claims to preserve
# behaviour is checked, where the benchmark cannot vouch for it (speculation
# and relaunch are off in every workload): cmd/lambada is built from BASE (a
# `git archive` of it in a temp dir) and from the working tree, and both run
# the same seeded DES query. Each half gives its first verdict on the result
# rows (the output above the "workers:" line), so a change that moves the
# modeled clock on purpose can still prove the answer:
#   trace-identical        q12 at 256 partitions, fault-free (292 workers in 3
#                          stages since PR 24, whose parent runs 564 in 4:
#                          against it this prints "rows identical" and then
#                          differs, as it must — cite both sides' "workers:" /
#                          "stage" / "query cost:" lines). First "rows
#                          identical"; then both sides' fleet, stage and cost
#                          lines, for a PR that means to move them to cite;
#                          then the Chrome trace exports and the printed
#                          reports (minus the last line, which names the trace
#                          file) must be byte-identical, or it exits non-zero.
#   trace-identical-storm  the same at 30 partitions (34 workers; 64 before
#                          PR 24) under the checked-in fault storm
#                          with speculation and a 2 s liveness cap: fails only
#                          if the result rows differ, and prints both sides'
#                          fleet, retry and cost lines to be read, not gated.
TRACE_Q12 = -mode des -profile -query q12 -exchange -broadcast-limit -1 -sf 0.002 -files 4
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

trace-identical: LINES = ^(workers:|  (stage|regroup) [0-9]+:|query cost:|traced cost:)
trace-identical:
	@$(TRACE_BUILD); \
	for side in base head; do \
		"$$tmp/lambada.$$side" $(TRACE_Q12) -partitions 256 \
			-trace-out "$$tmp/$$side.json" > "$$tmp/$$side.out"; \
		sed -i '$$d' "$$tmp/$$side.out"; \
	done; \
	$(TRACE_ROWS); \
	cmp "$$tmp/base.json" "$$tmp/head.json"; \
	cmp "$$tmp/base.out" "$$tmp/head.out"; \
	echo "$@: trace and report byte-identical to $(BASE)"

trace-identical-storm: LINES = ^(workers|retries|query cost):
trace-identical-storm:
	@$(TRACE_BUILD); \
	for side in base head; do \
		"$$tmp/lambada.$$side" $(TRACE_Q12) -partitions 30 -speculate -max-stage-wait 2s \
			-fault-plan cmd/lambada/testdata/storm.json > "$$tmp/$$side.out"; \
	done; \
	$(TRACE_ROWS)
