// Package lambada is a reproduction of "Lambada: Interactive Data Analytics
// on Cold Data using Serverless Cloud Infrastructure" (Müller, Marroquín,
// Alonso; SIGMOD 2020): a purely serverless query processing system — a
// local driver, thousands of FaaS workers, and communication exclusively
// through shared serverless storage — together with the simulated AWS
// substrate (S3, Lambda, SQS, DynamoDB on a deterministic discrete-event
// kernel) that the paper's evaluation is reproduced on.
//
// # Concurrency levels
//
// Each worker exploits concurrency at five levels — the paper's four scan
// levels (§4.3.2, Figure 8) plus a morsel-driven execution layer on top:
//
//	(5) file/pipeline parallelism: a bounded worker pool scans multiple lpq
//	    files concurrently (scan.Config.ParallelFiles) and the engine runs
//	    every plan on a pipeline-graph scheduler at one morsel worker per
//	    CPU (engine.ExecuteParallel);
//	(4) the footers of all files of a scan opened together, ahead of the
//	    first file's data (scan.OpenAll);
//	(3) row groups double-buffered: download overlaps decompression;
//	(2) the column ranges of a row group fetched together
//	    (s3fs.File.ReadRanges);
//	(1) multiple chunked requests per read, only as a fallback, since
//	    extra requests cost money (Figure 7).
//
// Levels 1, 2 and 4 are requests, levels 3 and 5 are threads, and each kind
// is kept in flight by its own means. Threads are goroutines, for CPU work
// only; a DES process is a single thread of control, so a deterministic
// deployment turns levels 3 and 5 off (scan.Config.DoubleBuffer and
// ParallelFiles, beside the engine's Pipelines: 1) and nothing else. Requests
// are kept in flight by the S3 client, as a model of time that runs the same
// on both clocks, in two parts. The per-function token-bucket shaper models
// bandwidth: a transfer takes the time its bytes need at the rate its
// connections can draw, whoever else is reading. The request window
// (s3.Client.Overlap) models the overlap of first-byte latencies: up to
// sixteen calls in flight, each on a lane — a view of the client on a clock
// of its own that adds up the request's latency, backoff and transfer instead
// of parking — while the caller parks only until a lane is free and, at the
// end, until the last one is. Every request is still admitted,
// fault-injected, rate-limited, billed and traced at the instant it is
// issued, in issue order; the lanes' transfers queue on the one shaper, so a
// window moves bytes no faster than the function can. A window costs no
// request, no byte and no thread, and against a service without latencies
// (NewLocal) no time either, so nothing switches it off.
//
// Every multi-request loop of the read path goes through it. The exchange's
// three — a round's reads of one small range per writer, the per-shard Lists
// of one discovery pass, a sweep's List and DeleteObjects per bucket —
// because a worker that pays 256 latencies of ~35 ms one after another for
// 256 KB is not the paper's worker (§4.3.2, §4.4.2), and the fleet behind it
// idles, billed, until it is done. The opens (level 4): opening a file is one
// request (a suffix read that returns the size with the footer), and the
// files of all the tables a plan scans that the session has not opened
// before are opened in one window (scan.OpenAll) — one first-byte latency for
// up to sixteen files, where two serial requests per file were 0.4 s at the
// head of every staged query; a scan over several files opens them the same
// way before it reads the first. And a scan's data reads (level 2): the
// coalesced spans of one s3fs.File.ReadRanges are one window, so the two or
// three spans that a third to two thirds of a worker's reads plan pay their
// ≈ 30 ms latencies together. Level 1's chunks follow one another on the lane
// that carries their read: no read on any workload reaches the 16 MiB chunk
// size. Uploads cannot ride a lane: a Put makes its object visible, and wakes
// the readers parked on its key, after its latency, and a lane has no instant
// of its own at which to do so (Put on a lane returns s3.ErrLaneWrite).
//
// # Price-aware scan layer
//
// S3 bills a scan on two axes — a fixed price per GET request and a linear
// price per byte — and the lpq v2 format plus the scan read path spend both
// deliberately (Figure 7's request-size trade-off, applied to dollars
// rather than bandwidth).
//
// An LPQ2 file extends every column chunk's footer entry with a distinct-
// count estimate and a page index: chunks longer than WriterOptions.PageRows
// are split into pages, each encoded and compressed independently, with
// per-page row counts, byte extents and min/max bounds. The index is stored
// compactly — lengths as uvarints with offsets reconstructed cumulatively,
// Int64/Bool bounds zigzag-encoded, Float64 bounds raw — because every
// reader downloads the footer before anything else. Page bounds are kept
// only when they can actually prune: if the average page value range
// exceeds half the chunk's range (an unclustered column), the writer drops
// the page stats and the pages carry extents alone. LPQ1 files remain fully
// readable; the footer read itself fetches a speculative tail sized to real
// footers (lpq.FooterGuess) so opening metadata never re-downloads a small
// object end to end.
//
// Scans with a residual filter run in two phases (late materialization):
// phase one fetches only the filter columns of the pages that survive
// zone-map pruning and evaluates the exact predicate; phase two fetches the
// payload columns only for pages where rows actually survived, then gathers
// the surviving rows. Each phase fetches one covering byte range per column
// — first kept page to last kept page — so per-column requests never exceed
// one and billed bytes never exceed the chunk. Across columns, ranges are
// batched through s3fs.File.ReadRanges, which coalesces them into spans
// when the gap is small (scan.Config.CoalesceGapBytes, default 128 KiB)
// and the accumulated hole bytes stay under 1/8 of the span — trading one
// fixed-price request against a bounded byte overhead, never an unbounded
// one — and issues the spans through one request window of the client
// (level 2). The same page index feeds planning: stage fan-out uses the
// pruning-aware lpq.EstimateRows instead of raw footer row counts, so
// selective queries launch fewer scan workers. scan.Stats and the driver
// Report expose the billed request and byte counters the cost-guard tests
// and BenchmarkStagedSelectiveScan assert on.
//
// # Pipeline-graph scheduler
//
// The engine has exactly one executor. A planner pass decomposes any plan
// into a DAG of pipelines — streamable scan/filter/project/join-probe
// chains terminated by breaker sinks (aggregate, sort, limit, collect) —
// with dependency edges: a join's build pipeline completes and its hash
// table seals before the probe pipeline starts. The scheduler runs ready
// pipelines as their dependencies finish, fanning each pipeline's morsels
// out to N workers; engine.Execute is the same scheduler at N = 1, running
// the whole graph inline without spawning a single goroutine (the form DES
// deployments require). There is no serial fallback path: joins, nested
// breakers and arbitrary operator chains all run morsel-parallel.
//
// Hash joins build a sealed-then-shared table in one of three key modes
// (mirroring the aggregation kernel's group-addressing matrix):
//
//	dense   single int64 key spanning a narrow range: direct-index CSR
//	int64   single wide int64 key: open addressing, partition-parallel build
//	string  multi-column keys: encoded-key map, partition-parallel build
//
// Float and bool join keys are rejected at planning time with
// engine.ErrJoinKey. Probes gather matches through selection vectors in
// (probe row, build row) order, so results are independent of worker count.
//
// Everything above level 1 is deterministic in its results: parallel scans
// deliver chunks in serial order, aggregation folds per-chunk partials in
// sequence order, collect sinks reassemble morsels in sequence order, and
// the limit sink takes the first N rows in sequence order — outputs are
// byte-identical to serial execution. In discrete-event-simulated
// deployments all levels are forced off (worker code must not spawn
// goroutines); the bandwidth shaper models their timing effect instead.
//
// # One executor
//
// The paper has one execution model — the driver compiles a plan, invokes a
// fleet, and "polls until it has heard back from all workers" (§3.2–3.3),
// with the exchange as just another operator between fragments (§4.4) — and
// internal/driver has one executor for it, in two parts: the scheduler type
// (scheduler.go) is the policy — which stage may launch, what a result
// message means, who is a straggler — as a state machine that holds no
// environment, reads no clock and issues no request; runStages (stage.go) is
// the loop that feeds it instants and messages and does every Invoke,
// sqs.Receive, dynamo.Put, span edit and wait its answers ask for. Every
// query reaches it as a stage plan (internal/stageplan) from one planner,
// query.plan, behind one entrance, Session.Run; RunSQL, RunPlan, their
// Broadcast and their Staged forms are that call with their arguments put in
// its terms, and the result cache sits in front of it for every query whose
// inputs are all S3 files. The planner opens the footers of every file of
// the tables the plan scans (one request window; a file whose schema differs
// from its table's first is a typed ErrInvalidPlan before any Invoke),
// optimizes against them, and hands stageplan.Decompose what they say — and
// Decompose, not the caller, decides the shape of the plan from it:
//
//	row counts        per join, broadcast the build side or shuffle both;
//	                  the boundary fan-in when it is not given
//	per-file rows     under the pushed-down predicates: a file that cannot
//	                  match gets no scan worker, the rest size the fleets
//	min / max         of the Int64 base column each group key copies
//	                  (through filters, joins and identity projections):
//	                  they bound the groups at ∏ (max − min + 1). When
//	                  groups × the producing stage's fleet is at most
//	                  stageplan.DefaultBroadcastRowLimit, the partials
//	                  merge on the driver (§3.2; Q1's ≤ 6 groups, q12's
//	                  ≤ 5); a computed key, a missing statistic or a wider
//	                  range repartitions them into a final-merge stage
//
// A driver-resident table — a chunk the caller holds in memory, what
// Run…Broadcast passes (§3.2's "small amounts of data read locally") — is
// never opened and always broadcast: its rows and value ranges are the
// chunk's own, and a query with one has no cache key. stageplan.Explain ends
// with the merge decision and the numbers behind it ("merge: driver (≤ 6
// groups × 4 workers)", "merge: repartition ×256 (l_orderkey unbounded)"),
// and cmd/lambada -v prints it above the report.
//
// From there on there is one of everything. One task shape: the invocation
// blob carries the worker's ID, its plan fragment and its inputs (§3.3) —
// files to scan, broadcast tables, and at most one boundary spec naming the
// boundaries it collects from and publishes into — and the worker has one
// path through them: wait for each input's ready marker, collect, execute,
// then publish or post the result. One launch loop: a stage's fleet is cut
// once into launch units — one per worker, or, where invoke.UseTree picks
// the two-level tree (§4.2) on a session without a concurrency cap, one per
// first-generation worker with its children's payloads folded in — and the
// scheduler walks them with take tokens → pace → Invoke, a tree unit being
// a synchronous unpaced Invoke of 1+children tokens and a direct unit a
// pipelined one paced at the Invoke API rate. The tokens come from an
// invoke.Admission: the session's shared one under Config.MaxInFlight, a
// private unlimited one — all pacer, no cap — otherwise, so capped and
// uncapped launches are the same code; recovery re-invokes (failure
// relaunches, speculation backups) are direct units admitted past the cap.
// A stage is launchable (scheduler.launchable) once every stage it depends
// on is fully launched, so invocation order is topological. One loop reads
// the result queue and hands each message to scheduler.message — one
// speculation policy, one failure-seal relaunch — and one merge follows, in
// worker order, so results are deterministic. A plan pays only for the
// machinery it uses, by two rules that hold for every plan:
//
//  1. The boundary namespace — shard buckets, the stages table, the durable
//     epoch fence, the result-queue purge and both boundary sweeps — exists
//     iff some stage has an exchange output. A plan without boundaries runs
//     at epoch 0, ships no boundary spec, and issues no DynamoDB request and
//     no S3 LIST at all: a one-stage query bills the planner's footer reads,
//     its invocations, its workers' scans and its result polls, nothing else.
//  2. A stage's DynamoDB ready marker is written iff some other stage run
//     waits on it. Nobody waits on the result stage, so it writes none.
//
// TestExecutorRequestGuard pins both as integer billed-request counts per
// pricing label.
//
// # Stage planner and exchange data flow
//
// Queries whose shapes exceed one distribution scope — joins with two
// large sides, high-cardinality group-bys — run through the stage planner
// (internal/stageplan): the optimized plan is decomposed into a DAG of
// stages connected by exchange boundaries over S3 (§4.4).
//
//	scan stage      reads its file subset of one base table, applies the
//	                pushed-down filters/projections, and hash-partitions
//	                its output rows on the downstream join keys into P
//	                partition files (write-combined: one object per worker
//	                with cumulative offsets encoded in its name)
//	join stage      P workers; worker p collects partition p of both
//	                sides, builds the hash table on the build side and
//	                probes with the other — no worker sees a whole table
//	agg split       aggregations split into a partial aggregate in the
//	                row-producing stage and a merge: on the driver when
//	                the footers bound groups × fleet (above), else behind
//	                a repartition on the group keys, in a final-merge
//	                stage owning each group whole
//
// Every boundary, and every other shuffle in the repository, is made of one
// protocol step, the round (internal/exchange, round.go): writers cut a body
// into slots and commit it under an attempt number; the reader of a slot
// waits until every writer has a committed attempt, takes each writer's
// lowest one and reads its slot of each. A scan→join boundary is the round
// with the scan stage's workers as writers and the join stage's as slots;
// write combining is the round's one switch (one object per writer with the
// slot offsets in its name, or a file per slot plus a commit marker); and
// one codec (boundaryKey, fuzzed for round-trip by FuzzBoundaryKey) renders
// and parses every object name and List prefix. The paper's symmetric
// k-level grid exchange (exchange.Worker.Run and RunSynthetic; Table 3,
// Figure 13) is the same code: along each level, the workers that agree on
// every other grid coordinate are a boundary with as many senders as
// partitions, so the experiments time the waits the scheduler runs.
//
// The planner chooses broadcast-vs-shuffle per join from the lpq footer
// row counts: a genuinely small build side ships inside worker payloads as
// before, everything else shuffles. Boundary fan-in autotunes from the
// same row counts when unset (stageplan.AutoRowsPerPartition rows per
// partition, capped at stageplan.MaxAutoPartitions — raise the ceiling per
// query through driver.StageConfig.MaxAutoPartitions / -max-partitions
// when driving multi-thousand-worker fleets).
//
// # Multi-level exchange boundaries
//
// A single-round boundary with S senders and P receivers costs O(S·P) S3
// requests — the dominant bill at scale (§4.4's central observation). Each
// boundary therefore carries an exchange.Variant resolved independently per
// edge: stageplan.ChooseVariant prices every candidate with the exact
// analytic request model (exchange.Variant.Requests — puts, gets and lists
// as closed-form functions of S, P and the shard-bucket count) and keeps
// single-round for narrow edges while sending wide ones through the
// multi-level protocol (§4.4.2). Multi-level is two rounds, not a second
// protocol: the senders' round has G = exchange.Groups(P) ≈ √P slots — a
// group is a run of consecutive partitions, so a sender's group object is a
// run of its partition-scattered rows — and each group then gets a round of
// its own whose single writer is the group's regroup worker and whose slots
// are the group's partitions. The regroup round is a stage: once the
// scheduler has resolved a boundary multi-level it puts a plan-less stage of
// G workers right behind the producer — its one input is the producer's
// boundary, its output the same boundary's second round — and makes the
// boundary's consumers depend on its seal, since the objects they read exist
// only then. Nothing else knows it is special: its payloads are built, its
// fleet launched, sealed, speculated, relaunched and fenced like any
// stage's, and a worker handed a task without a plan runs the regroup round
// of the task's input — collect the group sender-ascending, split it by the
// same hash, publish. A receiver collects its partition from its group's
// round — one List and one read instead of S, O(S·G + P) requests instead
// of O(S·P). Attempt versioning is the round's, so it carries through both:
// a regroup worker reads each sender's lowest committed attempt, and its own
// output is attempt-versioned and committed the same way, so
// first-committed-attempt semantics and the epoch fence hold unchanged; the
// fence/speculation/chaos suites re-run over forced multi-level boundaries,
// and TestStagedQ12ScaleSmoke pins the billed request counts of a 1k-worker
// staged q12 to the model integer-exactly. -exchange-levels forces a round
// count (1 or 2) for ablations, and the profile output reports each
// boundary's resolved variant and each regroup fleet under its producer.
//
// Invocation itself is the other O(S·P) hazard: a wide fleet launches
// through the invoke.TreeFanout protocol (first workers re-invoke the rest,
// §4.2), so driver-side launch work per stage is O(√fleet) while the event
// loop stays O(1) per completion event at 4k workers.
//
// The scheduler is event-driven rather than lock-step dependency waves. It
// keeps one stageRun per stage — payloads, pending launch units, winners,
// attempts, response times, the liveness-cap window — in one of three
// states, and every transition is a method that takes the instant as an
// argument and answers with what the driver must do:
//
//	pending  → launched  launchable(r) says the stage may take admission
//	                     tokens; the loop invokes what admission grants and
//	                     reports the pass with launched(r, tokens, from, now)
//	launched → launched  message(now, msg) discards zombies (older epoch,
//	                     unknown worker) and losers (a second seal of a
//	                     worker, a failure of a superseded attempt), records
//	                     a winner, or answers relaunch: re-invoke the
//	                     worker's next attempt; stragglers(now) nominates
//	                     backups the same way; a failure seal that may not
//	                     be relaunched is the query's StageFailure
//	launched → sealed    message answers sealed on the stage's last winner;
//	                     the loop writes the DynamoDB ready marker (rule 2),
//	                     calls marked(r, now), launches what that unblocked
//	                     and starts the consumers' cap clocks, armCaps(now)
//
// Every stage's payloads are computable up front and a stage is launchable
// as soon as its producers' fleets are launched, so every fleet is invoked
// the moment the query starts: consumer cold starts and invocation pacing
// overlap upstream execution, and the DynamoDB ready marker — written when
// the driver has seen every producer seal through the SQS result queue —
// gates each worker's collect instead of its launch. (Wave-gated launch
// survives only as a test seam, for the tests that need barrier reads in a
// known order.) TestSchedulerTransitions walks the transitions without a
// kernel or a deployment.
//
// Straggler speculation (§5.5's aggressive-timeouts-and-retries theme)
// applies per stage: once a quorum of a stage's workers sealed and a
// straggler outlives a multiple of the median response time, the scheduler
// re-invokes it as a new attempt. A round's object names are versioned by
// attempt (s<stage>/p<part>/a<attempt>-snd<sender>, with a per-attempt
// commit marker; write-combining's single Put commits implicitly), so a
// backup never races the original's files: readers take each writer's
// lowest committed attempt, and since fragments are deterministic, every
// attempt's files are byte-identical — whichever attempt wins, the rows
// collected are the same. The stale-drain collector (exchange.Sweep) purges
// the boundary namespace before a query (an identically-numbered aborted
// run on a fresh driver must not leak into its retry) and after it (loser
// attempts and winner files alike).
//
// Stage fragments are ordinary engine plans executed on the pipeline-graph
// scheduler, and every boundary preserves row order (partition rows in
// sender order, senders in ascending ID order, driver merges in worker
// order), so staged execution is fully deterministic — pipelined launch,
// speculation and all — and, for order-insensitive aggregates (COUNT,
// integer SUM, MIN/MAX) under an ORDER BY, byte-identical to single-node
// execution at any worker/partition/attempt count; floating-point SUM/AVG
// agree to last-ulp rounding, as the split changes the summation order.
//
// # Query-epoch fence
//
// The serverless model has no cluster membership, so nothing tells the
// driver that workers of an earlier run still exist. A fresh driver on the
// same deployment restarts query numbering, and while the pre-launch
// purge/sweep clears an aborted identically-numbered run's at-rest debris,
// one of its workers still in flight could post a seal — or publish
// boundary files — after that purge, under the same query ID. The epoch
// fence closes this structurally. The lifecycle of every query whose plan
// has a boundary (a plan without one publishes nothing a zombie could
// poison, posts at epoch 0 to a queue that dies with the query, and takes
// no fence):
//
//	acquire   the driver atomically increments the query's epoch item in
//	          the <fn>-stages DynamoDB table (conditional Put; the durable
//	          counter itself is the uniqueness source — no wall clock, no
//	          randomness, so DES runs stay deterministic)
//	stamp     the epoch rides in every worker payload, every seal message,
//	          every ready-marker key (q<N>/e<E>/s<stage>) and the whole
//	          boundary namespace
//	          (<fn>/q<N>/e<E>/s<stage>/p<part>/a<attempt>-snd<sender>)
//	discard   the scheduler drops seal messages whose epoch is not the
//	          current one; consumers wait on this epoch's ready markers
//	          and collect under this epoch's prefix, so an older epoch's
//	          artifacts are invisible rather than merely improbable
//	sweep     purge/sweep still run — as hygiene: sweeps cover the query's
//	          whole prefix across epochs, reclaiming zombie debris
//	          whenever it lands
//
// A zombie worker of an aborted epoch can therefore wake at any time,
// publish anywhere in its own e<E-1> namespace and post any seal it likes:
// the retry at epoch E never reads it (stage_fence_test.go injects exactly
// this and checks the retry stays byte-identical).
//
// Barriers are notify-driven rather than poll-quantized, and the completion
// broadcast is keyed: every substrate write broadcasts a topic naming what
// became visible ("s3/<key>", "dynamo/<table>/<key>", "sqs/<queue>"), and
// waiters park on the prefix they actually await — waitSealed on its seal
// marker's key, the exchange's commit waits on the stage's commit prefix,
// result collectors on the result queue's topic (simclock.Proc.WaitNotifyKey
// under DES, simenv.WaitNotifyKey for functional-mode goroutines). A waiter
// wakes at the exact virtual instant of the matching write — removing the
// up-to-one-poll residual from modeled latencies — while a hundred-sender
// shuffle no longer wakes every parked barrier in the simulation on each
// Put (Report.Wakeups counts the delivered wakeups; the keyed-vs-unkeyed
// regression test pins the reduction). The timed poll remains the fallback
// for waiters whose write never comes. Commit
// discovery is batched: one List of the round's commit namespace per shard
// bucket per pass, only of buckets still hosting an unseen writer, and an
// object naming a writer outside the round fails the collect with a
// boundary-shape error instead of being counted; exchange.Sweep deletes
// through the batched DeleteObjects API. Liveness holes in speculation are
// covered by the per-stage MaxStageWait cap: a runnable stage that goes
// that long without any worker response (the window restarts on every
// response) has its missing workers re-invoked as the next attempt — the
// no-response and sub-quorum stalls quorum arithmetic can never arm for.
//
// # Resident query service
//
// The one-shot driver is a thin veneer over a resident session. A
// driver.Session binds to a deployment once — installs the worker function,
// owns the admission controller, the result cache and the footers of the
// files it has opened — and then runs many queries, sequentially or
// concurrently, against that warm state; Driver itself is now Session plus a
// default environment, so the single-query API is unchanged. Each query runs on its own per-query scheduler with three
// isolation planes:
//
//	results   every query gets its own SQS result queue (<base>-q<N>),
//	          created at query start and deleted at close — a zombie seal
//	          from a finished query lands in a deleted queue, not in a
//	          sibling's mailbox
//	names     the epoch fence already namespaces S3 boundaries, ready
//	          markers and seal messages per (query, epoch); concurrent
//	          queries never share a prefix
//	budgets   retry budgets and fault scopes stay per-query
//
// Under Config.MaxInFlight the queries of a session launch against one
// deployment-wide budget (invoke.Admission): every invocation across all
// live queries acquires a slot, released by the Lambda service's
// completion hook. Every stage — a one-stage query's included — acquires
// partially and never blocks: it launches as many workers as
// there are free slots and the remainder as slots free up, so N queries
// make progress under one cap instead of deadlocking on whole-fleet
// acquisition; recovery and speculation re-invokes use an
// overflow class that may exceed the cap rather than wait behind the very
// queries they are unsticking. The interleaved-session test pins the
// meter: the in-flight peak never exceeds the cap, and K = 4 concurrent
// staged queries on one session produce byte-identical results to the
// same queries run one-shot, deterministically across seeded DES runs on
// both exchange variants.
//
// Repeated queries skip the fleet entirely: the session caches final
// result chunks keyed by (stageplan.Fingerprint of the logical plan,
// sorted table file lists), so a hit is a driver-local decode with zero
// invocations and zero new billed requests. Invalidation is explicit
// (Session.InvalidateTable / InvalidateResultCache) and automatic on
// UploadTable, which overwrites objects under the same FileRefs.
//
// Queries the cache does not hold skip the planning reads instead. What
// opening a file teaches the driver — the object's size and its decoded
// footer, nothing else: not the bytes read, not a handle, which belongs to
// one query's client — stays in a table on the session (scan.Footers), so the
// first query that scans a table pays one request per file, in one request
// window, and every later one plans without touching S3. The table stands
// under the result cache's contract, stated once: the files a session knows
// are immutable until UploadTable, InvalidateTable, InvalidateResultCache or
// the service's /invalidate says otherwise, and each of them drops the table
// whole (footers are kept by object; which table an object belongs to is the
// caller's knowledge). Workers never see it and always read the footers of
// the files they scan, so a stale entry can mis-plan a query — prune a file
// that now matches, size a fleet from old row counts — and never mis-decode
// one. Two rules keep it safe under concurrent queries: it never makes one
// query wait for another's open (two that miss together both read; under DES
// a process blocked on a lock that a parked process holds stalls the kernel),
// and an open issued before an invalidation stores nothing after it.
//
// internal/service wraps a session in an HTTP/JSON endpoint and
// cmd/lambada-serve runs it: POST /query takes a named query or raw SQL
// with :name parameters, and every response carries the rows, a per-query
// profile (workers, stages, cold starts, speculated attempts, billed $,
// S3 requests/bytes, cache hit) and — for queries with a calibrated QaaS
// spec — the modeled Athena/BigQuery price/latency comparison, the paper's
// §5.4 table as a per-request field. A Runner abstraction picks the
// execution substrate: GoRunner serves each request inline on a real-time
// local deployment; DESRunner batches concurrent HTTP requests inside a
// real-time window into one interleaved virtual-time run on the DES
// kernel, so even the simulated deployment serves concurrent traffic.
// `make serve-smoke` boots both modes in CI and drives the
// fresh/cached/invalidate sequence end to end.
//
// # Failure model and resilience
//
// The simulated substrate injects failures deterministically: every service
// consults a seeded internal/awssim/faults.Injector once per operation, and
// a JSON-serializable FaultPlan prescribes what goes wrong where — S3
// transient 500s, request timeouts and SlowDown storms, SQS at-least-once
// duplicate delivery (the copy surfaces after a configured delay) and
// receive timeouts, DynamoDB throttling (rejected before any mutation, so
// conditional writes stay safe to retry), Lambda crash-on-invoke,
// crash-mid-run and cold-start spikes. Decisions are pure hashes of
// (seed, rule, op, per-op counter), so a plan replays exactly under the DES
// kernel: the chaos suite asserts a staged query under a seeded storm is
// byte-identical to its fault-free run, twice.
//
// One policy layer absorbs those faults everywhere: resilience.Policy.Do is
// the only retry loop in the tree and the only place a substrate call's op
// span is opened (lambda.start apart). It classifies errors
// retryable-vs-fatal (a registry the services feed, e.g. S3 SlowDown), backs
// off with decorrelated jitter — a pure hash of (scope seed, op, attempt),
// virtual-time-safe because waits go through simenv, and never a draw from a
// service's latency sampler, so one client's retry cannot move another's
// latencies — and charges every retry against a per-scope budget. A scope is
// one Policy value: the driver side of a query holds one, each worker
// invocation one of its own, and every call of the scope runs under it — SQS,
// DynamoDB, Lambda, and S3 through s3.WithPolicy, the driver's planning
// reads, broadcast loads, sweeps and table uploads included — so one budget
// bounds them all and Report.DriverRetries / WorkerRetries count them all.
// Retried requests are still billed, because the real substrate bills them
// too. A fault plan is outside input: faults.ParsePlan rejects, typed, a rule
// for a stream no service consults or of a kind its service has no case for.
//
// Degradation is graceful and typed: a worker that exhausts its budget
// posts a failure seal marked retryable, and the stage scheduler re-invokes
// it through the same attempt-versioned machinery speculation uses (the
// failure path works with speculation disabled, and for one-stage
// queries like any other); a worker that dies without
// posting anything is recovered by the MaxStageWait liveness cap. A query
// that cannot progress fails fast with a structured *StageFailure and the
// usual sweeps reclaim its debris. Epoch fence items themselves are
// garbage-collected lazily: acquireEpoch periodically sweeps epoch/<query>
// items older than EpochTTL of virtual time.
//
// # Observability and tracing
//
// internal/obs is a dependency-free, virtual-clock tracing and metrics
// layer threaded through the whole query lifecycle. A deployment runs
// traced after Deployment.EnableTracing(obs.New()), which installs the
// tracer on the meter (cost) and on S3 and Lambda (op and invoke spans); a
// nil tracer is the no-op tracer, so the instrumented call sites cost
// nothing when tracing is off. Spans form a tree:
//
//	query    one driver query
//	stage    one stage run of its plan (a plan without a boundary has one;
//	         a multi-level boundary adds a regroup run)
//	invoke   one Lambda worker invocation (an attempt; tags carry worker,
//	         cold, attempt, fault/timeout outcomes, rows and bytes moved)
//	op       one substrate call (s3.getrange, sqs.Receive, dynamo.PutIf,
//	         lambda.start, …; tags carry retries and outcome)
//
// Cost accounting has one unit and one ledger. obs.Cost is the unit: exact
// integers — request counts per service, S3 bytes read, Lambda duration as
// MiB·ns. pricing.CostMeter is the ledger: every billed unit is added to
// it once, by CostMeter.Charge(env, cost) at the point the service bills
// it (ChargeSpan for the Lambda duration, which belongs to its invocation
// span), and the same call forwards the charge to the installed tracer,
// where it lands on the innermost span bound to the acting environment.
// Dollars are never accumulated: pricing.Bill is the only place a count
// meets a price, and CostMeter.Get/Count/Total, Report.TotalCost, the
// profile's dollar columns, the service's /stats and the analytic models
// (exchange.RequestCount.Cost, the stage planner's regroup overhead) all
// derive from it — so totals are deterministic and independent of charge
// order. Count(label) is the label's units: requests, except
// "lambda.duration", which reads billed MiB·ns.
//
// A query's Report.Cost is the meter's movement over its window
// (Meter.Cost().Sub(before)); the window is deployment-wide, so queries
// that overlap on one session see each other's spend in it. The traced
// Profile().Cost — the sum over the query's own span subtree — is the
// exact per-query figure, and because spans are charged by the ledger
// itself it equals the meter's movement by construction, integer-exactly:
// the cost-attribution tests pin Profile().Cost == Report.Cost for a lone
// query under the chaos and crash plans, and the sum of two concurrent
// queries' profiles against the meter. To make that hold, a traced query
// closes its cost window only after the Lambda service runs no invocation
// — so a traced Report.Duration includes the straggler-loser tail that an
// untraced run's Duration excludes.
//
// Everything downstream is derived from the span tree. Report.Profile
// folds it into an EXPLAIN ANALYZE record: per-stage wall time, attempt
// counts, rows and shuffle bytes, billed cost in exact units and dollars,
// plus the critical path — obs.CriticalPath extracts the latency-bounding
// chain with one sorted sweep (near-linear; the quadratic definition is
// kept as the test reference), whose segments tile the query span exactly,
// so their durations sum to the end-to-end virtual latency. The analyses
// share one obs.Tree, the recording's child index. The CLI
// prints it under -profile and writes a Chrome trace-event JSON file
// under -trace-out (loadable in Perfetto; validated by cmd/tracecheck and
// `make trace-smoke`). Timestamps come from the virtual clock and span
// IDs from call order, so under the DES kernel two runs of the same
// seeded query export byte-identical traces — the determinism suite
// asserts this with the chaos plan active on both exchange variants.
//
// # Chunk pooling
//
// Hot paths avoid the allocator: columnar.Pool recycles vectors and chunks
// between morsels. The ownership contract is documented on columnar.Pool —
// in short, only the operator that got a chunk from the pool may recycle
// it, and only at a pipeline breaker once the morsel is fully consumed. A
// Pool is a mutex and free lists that die with the operator owning it, not
// a sync.Pool: per-query sync.Pools stay reachable through the runtime's
// registry for two collections after the query is gone.
//
// # The byte path
//
// Every step between a chunk and the bytes of an object — encode, compress,
// partition, decode — allocates in proportion to the rows it handles, and
// each buffer has one owner that reuses it:
//
//   - An lpq.Writer owns its row-group buffer (grown by doubling, emptied by
//     a flush, never reallocated), the hash set of its one-pass column
//     profile (sortedness, runs, exact distinct count, min/max — which decide
//     the encoding, fill the footer and seed the dictionary), the encode
//     scratch, and one gzip compressor, Reset from page to page. Row groups
//     that arrive whole are encoded from Slice views of the caller's chunk;
//     lpq.WriteFile and AppendFile take every row group of their last chunk
//     that way, so a one-chunk file — every partition, result post and
//     cached result — is never copied before it is encoded.
//   - An lpq.DecodeState owns the inflate buffer and one gzip reader, Reset
//     from page to page. Whoever decodes holds one per goroutine:
//     Reader.AppendTo (and ReadAll on top of it) for a whole file, a
//     scan.Source a free list of them for its row-group and page fetchers.
//     Pages are decoded onto the destination vector directly; decoded
//     values never alias the state.
//   - A publishing worker partitions in one pass (exchange's scatter: a slot
//     id per row, a histogram, prefix sums, one permuted copy per column,
//     stable within a slot), so a partition and a §4.4.2 group of
//     consecutive partitions are Slice views of the one scattered chunk,
//     and encodes slot after slot into a single buffer. Write-combining
//     senders Put that buffer whole with the slot offsets in the object
//     name; the others Put its slices. A collecting worker opens the footers
//     of what it fetched, sizes the output chunk once from their row counts
//     and decodes every blob into its place.
//
// None of this moved a byte: the writer's output and every boundary's
// object names, sizes and contents are pinned by golden tables recorded
// before the byte path was rebuilt (internal/lpq/testdata,
// internal/exchange/testdata), which is why shaped transfer times, billed
// bytes and therefore every modeled latency and dollar stayed bit-identical
// across the change. Allocation-regression tests in both packages bound the
// bytes a small file, a streamed file, a page decode and a publish may cost.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section; bench/ holds the repository's two-clock
// benchmark (see bench/README.md).
package lambada
