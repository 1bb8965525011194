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
// The paper's scan exploits concurrency at four levels (§4.3.2, Figure 8):
//
//	(4) the footers of all files of a scan opened together, ahead of the
//	    first file's data — by the driver, at plan time (scan.OpenAll),
//	    which ships each worker its files' footers (scan.Source.Pin);
//	(3) row groups double-buffered: download overlaps decompression;
//	(2) the column ranges of consecutive row groups fetched together, across
//	    files, while they add up to at most the scan's payload break-even
//	    (s3fs.ReadWindow);
//	(1) multiple chunked requests per read, only as a fallback, since
//	    extra requests cost money (Figure 7).
//
// Levels 1, 2 and 4 are requests, kept in flight the same way on both clocks.
// Level 3 is modeled only in part: the downloads of small consecutive row
// groups overlap each other (level 2 spans them), but compute is free on the
// virtual clock, so a download has no decompression to overlap with (ROADMAP,
// direction 4(b)). A
// worker runs on one thread everywhere — a DES process and a goroutine worker
// alike, so the two deployments run the same worker code and differ only in
// runtime and clock: it has one vCPU at the paper's default 1 792 MiB (§4.1),
// so neither the scan nor the operators above it have a second core to fan
// out to. A scan reads its files in order, and the row groups of each in
// order, on its caller's goroutine. Requests are kept in flight by the S3
// client, as a model of time that runs the same on both clocks, in two parts.
// The per-function token-bucket shaper models
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
// (NewLocal) no time either, so nothing switches it off. The lane model itself
// is simenv.Overlap, which nothing in it ties to S3: the driver's result loop
// keeps a window of SQS Receives on it too.
//
// Every multi-request loop of the read path goes through it. The exchange's
// four — a round's reads of one small range per writer, the per-shard Lists
// of a driverless round's discovery pass, the driver's keyed delete of what a
// query wrote (one DeleteObjects per bucket, behind the query's result), and,
// past epoch 1 only, a sweep's List and DeleteObjects per bucket —
// because a worker that pays 256 latencies of ~35 ms one after another for
// 256 KB is not the paper's worker (§4.3.2, §4.4.2), and the fleet behind it
// idles, billed, until it is done. The opens (level 4): opening a file is one
// request (a suffix read that returns the size with the footer), and the
// files of all the tables a plan scans that the session has not opened
// before are opened in one window (scan.OpenAll) — one first-byte latency for
// up to sixteen files, where two serial requests per file were 0.4 s at the
// head of every staged query; a scan over several files opens them the same
// way before it reads the first. A worker opens nothing: its payload carries
// each of its files' size and trailing footer bytes as the planner's open read
// them, which it decodes (scan.Pinned, with all of lpq.OpenTail's checks)
// before its first request, so a warm scan worker's first round trip is its
// data. And a scan's data reads (level 2): a
// scan plans each row group's first read from the footer alone, and packs
// consecutive groups — across file boundaries — into one window while their
// bytes add up to at most the payload break-even (≈ 2.9 MiB, below), so a
// worker's two files or two row groups pay one ≈ 30 ms latency together, not
// one each; the spans are still planned per row group (s3fs.PlanSpans), so the
// GETs and bytes are what reading the groups one by one bills, and a consumer
// that stops early (a LIMIT) has paid for at most the rest of its window.
// The tables of one task share their first window: the worker tells each
// source the scan its fragment runs over it, and the first scan of any plans
// and fetches every source's first window at once, so a broadcast join's
// build and probe sides pay one first-byte latency together. A row group's
// projected columns are one GET whenever the holes between them add up to at
// most s3fs.DefaultCoalesceGap: they transfer for free, and a build side's
// GETs are billed once per worker of its stage. Level 1's chunks
// follow one another on the lane that carries their read: no read on any
// workload reaches the 16 MiB chunk size. Uploads cannot ride a lane: a Put
// makes its object visible, and wakes the readers parked on its key, after
// its latency, and a lane has no instant of its own at which to do so (Put on
// a lane returns s3.ErrLaneWrite).
//
// # Price-aware scan layer
//
// S3 bills a scan on two axes — a fixed price per GET request and a linear
// price per byte — and the lpq format plus the scan read path spend both
// deliberately (Figure 7's request-size trade-off, applied to dollars
// rather than bandwidth).
//
// An lpq file (trailer LPQ2) gives every column chunk's footer entry
// min/max bounds, a distinct-count estimate and a page index: chunks longer
// than WriterOptions.PageRows are split into pages, each encoded and
// compressed independently, with per-page row counts, byte extents and
// min/max bounds. The index is stored
// compactly — lengths as uvarints with offsets reconstructed cumulatively,
// Int64/Bool bounds zigzag-encoded, Float64 bounds raw — because every
// reader downloads the footer before anything else. Page bounds are kept
// only when they can actually prune: if the average page value range
// exceeds half the chunk's range (an unclustered column), the writer drops
// the page stats and the pages carry extents alone. NaNs stay out of every
// bound, and the columns of a row group are paged at the same rows: the
// reader refuses a footer that is not, and one with any other trailer (the
// LPQ1 layout, without page index or distinct counts, included). The
// driver's footer read fetches a speculative tail sized to real footers
// (lpq.FooterGuess) so opening metadata never re-downloads a small object
// end to end; a worker reads no footer at all.
//
// Scans with a residual filter run in two phases (late materialization):
// phase one fetches only the filter columns of the pages that survive
// zone-map pruning and evaluates the exact predicate; phase two decodes the
// payload columns only for pages where rows actually survived, then gathers
// the surviving rows. Whether phase two fetches the payload in a request
// window of its own is priced per row group: a second window saves the
// payload bytes of the pages the filter empties and costs one more S3
// first-byte latency, and below a break-even those bytes download faster
// than the latency elapses. The break-even is the mean GET first-byte
// latency times the sustained Lambda ingress rate (≈ 32 ms × 90 MiB/s ≈
// 2.9 MiB, §4.3.1 and Figure 7's request-size trade-off), derived from the
// S3 and network models, not set. A group whose kept payload is at most that
// fetches it in phase one's window, where it coalesces with the filter's
// columns; a larger one waits for the filter and fetches only the pages with
// surviving rows. Phase one's window is shared by as many consecutive row
// groups, of one file or several, as fit under the same break-even; the
// pages of a group too large to decode within a worker's engine budget are
// refused from the footer before they are fetched. Every read fetches one covering byte range per
// column — first kept page to last kept page — so per-column requests never
// exceed one and billed bytes never exceed the chunk. Across columns, ranges are
// batched through s3fs.ReadWindow, which coalesces each group's into spans
// while a span's holes add up to at most s3fs.DefaultCoalesceGap (128 KiB) —
// the holes transfer for free, so a saved request costs only bounded transfer
// time and memory — and issues the spans of all of a window's groups through
// one request window of the client (level 2). The same page index feeds planning: stage fan-out uses the
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
// table seals before the probe pipeline starts. engine.Execute runs the
// pipelines in that order, one morsel at a time, on the caller's goroutine,
// and starts none of its own (the form DES deployments require): joins,
// nested breakers and arbitrary operator chains all run this one way.
//
// Hash joins build a sealed-then-shared table in one of three key modes
// (mirroring the aggregation kernel's group-addressing matrix):
//
//	dense   single int64 key spanning a narrow range: direct-index CSR
//	int64   single wide int64 key: open addressing
//	string  multi-column keys: encoded-key map
//
// Float and bool join keys are rejected at planning time with
// engine.ErrJoinKey. Probes gather matches through selection vectors in
// (probe row, build row) order.
//
// Everything above level 1 is deterministic in its results: a scan delivers
// chunks in file order, and the engine consumes them in that order —
// aggregation folds per-chunk partials as they arrive, collect sinks keep
// arrival order, and the limit sink takes the first N rows. No package on the
// worker path starts a goroutine or makes a channel
// (TestWorkerPathStartsNoGoroutine).
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
// sqs.Receive, dynamo.Put, span edit and wait its answers ask for — the
// launch Invokes from a launch pass that, on the DES kernel, runs beside the
// loop (below). The workers it invokes run another program, internal/worker
// (§3.3: a driver and stateless workers): a worker.Payload in, a
// worker.Result out, and nothing of the driver imported
// (TestWorkerImportsNoDriver). Every
// query reaches it as a stage plan (internal/stageplan) from one planner,
// query.plan, behind one entrance, Session.Run; RunSQL and RunSQLStaged
// parse query text for it, and the result cache sits in front of it for
// every query. Every table a query reads lives on S3. The planner opens the
// footers of every file of the tables the plan scans (one request window; a
// file whose schema differs from its table's first is a typed
// ErrInvalidPlan before any Invoke),
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
// §3.2's "small amounts of data read locally that should be broadcasted" are
// the tables the footers call small: an unfiltered scan of at most the
// broadcast limit's rows, of a table the probe side does not scan (a
// self-join shuffles). The driver reads no table data, and a build table is
// a table like any other: the planner pins each table's kept files once — an
// unfiltered scan prunes none, so a build side keeps them all, as does a
// table the plan scans twice — and every
// payload carries the files of each base table its fragment scans, the stage's
// own table's as this worker's share, a build side's whole. Each worker reads
// the build side itself in its first request window — both sides' first reads
// share one first-byte latency, where the driver's load of the table used to
// precede every Invoke. No other rule broadcasts a table. The plan Decompose
// returns is complete — every fleet the query runs, with its size, every
// boundary's exchange algorithm, and each multi-level boundary's regroup round
// as a stage of its own (below) — and the driver builds payloads from it and
// runs it as given; it sizes, resolves and adds nothing. stageplan.Explain
// prints that DAG, a line per fleet in launch order, each boundary with its
// algorithm and shard-bucket count ("stage 1 scan=lineitem workers=2
// out=hash([l_orderkey])x256 1l-wc b=1"; with two rounds pinned, "stage 3
// regroup of 1 workers=16 …"), and ends with the merge decision and the
// numbers behind it ("merge: driver (≤ 6 groups × 4 workers)", "merge:
// repartition ×256 (l_orderkey unbounded)"); cmd/lambada -v prints it above
// the report.
//
// From there on there is one of everything. One task shape, the wire
// contract internal/worker owns: the invocation blob (worker.Payload)
// carries the worker's ID, its plan fragment and its inputs (§3.3) — one map
// from each base table the fragment scans to its files, none for a regroup
// or final-merge task, and at most one boundary spec naming the boundaries
// it collects from and publishes into, each input as the planner completed
// it, its senders and variant included — and the worker has one path through
// them: wait for each input's ready marker, collect,
// execute, then publish or post the result. One launch loop: a stage's fleet
// is cut once into launch units — one per worker, or, where invoke.UseTree
// finds the two-level tree (§4.2) starts the fleet sooner on a session
// without a concurrency cap, one per first-generation worker carrying its
// children's shares — and a launch pass walks them with take tokens → pace →
// Invoke. A stage is one task and a worker is its share (its ID and its slice
// of the stage's own table): every payload, the ones a first-generation
// worker builds for its children included, is the task's ForWorker of a
// share, checked whole (worker.Payload.Check, which refuses a child named
// twice) before its worker invokes anyone. Every unit, direct
// or first-generation, is a pipelined Invoke paced at Table 1's concurrent
// rate: the driver's one requester pool (invoke.RequesterThreads, ≈ 294
// Invokes/s to eu), so a 30-worker fleet is out in 0.1 s and launches
// directly, while 256 workers still go through the tree, whose first
// generation then pays one cold start before its children.
// The tokens come from an invoke.Admission — which owns the pacer: the
// session's shared one under Config.MaxInFlight, a private unlimited one —
// all pacer, no cap — otherwise, so capped and uncapped launches are the same
// code; recovery re-invokes (failure relaunches, speculation backups) are
// direct units admitted past the cap. A stage is launchable
// (scheduler.launchable) once every stage it depends on is fully launched and
// has reported at least one winner, so invocation order is topological. One
// loop reads the result queue — one Receive at a time, and while they come
// back full a window of them (simenv.Overlap, at most one per ten seals still
// missing) — and hands each message to scheduler.message — one speculation
// policy, one failure-seal relaunch — and one merge follows, in worker order,
// so results are deterministic. A plan pays only for the
// machinery it uses, by two rules that hold for every plan:
//
//  1. The boundary namespace — shard buckets, the stages table, the durable
//     epoch fence and the keyed delete of what the query wrote — exists iff
//     some stage has an exchange output. A plan without boundaries runs at
//     epoch 0, ships no boundary spec, and issues no DynamoDB request and no
//     S3 LIST at all: a one-stage query bills the planner's footer reads, its
//     invocations, its workers' scans and its result polls, nothing else. A
//     plan with boundaries issues nothing before its first Invoke but the
//     fence's one conditional write, and at epoch 1 lists no bucket either.
//     Nor does it wait for its keyed delete: the DeleteObjects are free and
//     nobody reads the objects once the merge has its rows, so on the DES
//     kernel the delete is a process of its own that runs behind the result,
//     and the query returns at its merge.
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
//	                partition files (write-combined: one object per worker,
//	                whose cumulative offsets its seal message reports)
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
// step, the round (internal/exchange, round.go): writers cut a body into
// slots and commit it under an attempt number, and the reader of a slot reads
// its slot of one attempt of each writer. A scan→join boundary is the round
// with the scan stage's workers as writers and the join stage's as slots;
// write combining is the round's one switch (one object per writer, or a
// file per slot); and one codec (boundaryKey, fuzzed for round-trip by
// FuzzBoundaryKey) renders and parses every object name and List prefix.
// How a reader learns which attempt to read, and where its slot is, is the
// protocol, and there are two. The stage boundaries run the staged one: the
// driver seals a stage once every worker reported, and the stage's ready
// marker is its manifest — per worker, the attempt the driver recorded as
// winner (the first seal) and that attempt's slot offsets, which its seal
// message carried (exchange.AppendCommit: uvarints, a few bytes per slot).
// A consumer walks the manifest once, keeps its own slot's range of each
// writer and reads — no List, no commit marker, and names without offsets
// (FuzzSealManifest holds the decoder to refs or a typed error on any
// bytes). The paper's symmetric k-level grid exchange (exchange.Worker.Run
// and RunSyntheticTraced; Table 3, Figure 13) runs the driverless one, as §4.4.3
// built it: the reader "repeats until the files exist" — Lists until every
// writer has a committed attempt, a write-combined object with the slot
// offsets in its name or a basic writer's commit marker — takes each
// writer's lowest one and reads its slot of each. Along each grid level the
// workers that agree on every other coordinate are a boundary with as many
// senders as partitions, so the experiments time the same round.
//
// The planner chooses broadcast-vs-shuffle per join from the lpq footer
// row counts: a genuinely small build side is read whole by every worker of
// the stage that joins it, everything else shuffles. Boundary fan-in
// autotunes from the same row counts when unset
// (stageplan.AutoRowsPerPartition rows per partition, capped at
// stageplan.MaxAutoPartitions; a wider fleet is pinned through
// driver.StageConfig.Partitions / -partitions).
//
// # Multi-level exchange boundaries
//
// A single-round boundary with S senders and P receivers costs O(S·P) S3
// requests — the dominant bill at scale (§4.4's central observation). Each
// boundary therefore carries an exchange.Variant resolved independently per
// edge: stageplan.ChooseVariant prices every candidate with the exact
// analytic request model of what a sealed boundary bills
// (exchange.Variant.SealedRequests — puts and gets as closed-form functions
// of S and P; the driverless exchange's model, with its lists, is
// Variant.Requests) and keeps single-round for narrow edges while sending
// wide ones through the multi-level protocol (§4.4.2). A write-combined
// candidate whose worst-case manifest (Variant.ManifestBytes) exceeds
// DynamoDB's 400 KB item limit is inadmissible and runs basic. The shard
// count comes from the same model: each candidate gets the fewest buckets b
// under which its puts, and apart its gets, stay within b · rounds ·
// stageplan.MaxBucketRoundRequests (S3's separate write and read ceilings
// per prefix, §4.4.1). Multi-level is
// two rounds, not a second protocol: the senders' round has G =
// exchange.Groups(P) ≈ √P slots — a group is a run of consecutive
// partitions, so a sender's group object is a run of its
// partition-scattered rows — and each group then gets a round of
// its own whose single writer is the group's regroup worker and whose slots
// are the group's partitions. The regroup round is a planner stage: when
// Decompose resolves a boundary multi-level it puts a plan-less stage of G
// workers right behind the producer, numbered after its own stages — its one
// input is the producer's boundary, its output the same boundary's second
// round — and the boundary's consumers depend on it and name it as their
// input's Ready stage, whose seal gates their collect, since the objects
// they read exist only then. Nothing else knows it is special: its payloads
// are built, its fleet launched, sealed, speculated, relaunched and fenced
// like any stage's, and a worker handed a task without a plan runs the regroup round
// of the task's input — collect the group sender-ascending, split it by the
// same hash, publish. A receiver collects its partition from its group's
// round — one read instead of S, O(S·G + P) requests instead of O(S·P).
// Attempt versioning is the round's, so it carries through both: a regroup
// worker reads the senders' attempts the sender stage's manifest names, its
// own output is attempt-versioned and sealed the same way, and receivers
// read the regroup stage's manifest, one entry per group, so first-seal-wins
// semantics and the epoch fence hold unchanged; the
// fence/speculation/chaos suites re-run over forced multi-level boundaries,
// and TestStagedQ12ScaleSmoke pins the billed request counts of a 1k-worker
// staged q12 to the model integer-exactly. -exchange-levels pins a round
// count (1 or 2) for ablations — it sets StageConfig.Exchange.Variant.Levels,
// which reaches the planner as stageplan.Config.Exchange — and the report
// shows each boundary's variant and books each regroup stage under its
// producer.
//
// Invocation itself is the other O(S·P) hazard: a wide fleet launches
// through the invoke.TreeFanout protocol (first workers re-invoke the rest,
// §4.2), so driver-side launch work per stage is O(√fleet) while the event
// loop stays O(1) per completion event at 4k workers.
//
// The scheduler is event-driven rather than lock-step dependency waves. It
// keeps one stageRun per stage — its task and shares, pending launch units,
// winners, attempts, response times, the liveness-cap window — in one of
// three states, and every transition is a method that takes the instant as an
// argument and answers with what the driver must do:
//
//	pending  → launched  launchable(r) says the stage may take admission
//	                     tokens; a launch pass invokes what admission grants
//	                     and reports each unit as its Invoke goes out with
//	                     launched(r, workers, at): the first one launches it
//	launched → launched  message(now, sent, msg) discards zombies (older epoch,
//	                     unknown worker) and losers (a second seal of a
//	                     worker, a failure of a superseded attempt), records
//	                     a winner, or answers relaunch: re-invoke the
//	                     worker's next attempt; stragglers(now) nominates
//	                     backups the same way; a failure seal that may not
//	                     be relaunched is the query's StageFailure
//	launched → sealed    message answers sealed on the stage's last winner;
//	                     the loop writes the DynamoDB ready marker (rule 2),
//	                     the stage's manifest as its value,
//	                     calls marked(r, sent, now) — sent is the sealing
//	                     message's SentAt, so sealed − sent is the seal lag
//	                     the report prints — starts a pass for what that
//	                     unblocked and the consumers' cap clocks, armCaps(now)
//
// Every stage's payloads are computable up front and a stage is launchable
// as soon as its producers' fleets are launched and each has reported a
// winner: consumer cold starts and invocation pacing overlap the rest of
// upstream execution, and the DynamoDB ready marker — written when the driver
// has seen every producer seal through the SQS result queue — gates each
// worker's collect instead of its launch. The first winner is the gate
// because launching costs little at the pool's rate and waiting does not: a
// consumer invoked with the query would idle, billed, on the ready barrier
// through its producers' whole cold start and scan. The report prints each
// stage's first winner (StageStat.FirstWinner, "first +…ms") beside its
// launch. (Wave-gated launch survives only as a test seam, for the tests that
// need barrier reads in a known order.) TestSchedulerTransitions walks the
// transitions without a kernel or a deployment.
//
// The loop never stops listening. On the DES kernel each launch pass is a
// kernel process of its own beside the loop, on the same clock, as the
// paper's driver issues Invokes from requester threads while it collects
// (§4.2): a seal that arrives while a 256-worker fleet is still being
// invoked is consumed at once — winner recorded, ready marker written,
// dependants launchable — instead of after the fleet's last Invoke, and every
// worker already up stops billing that lag. On an
// Immediate environment the pass runs inline, as a plain call: there is no
// timeline to overlap. At most one pass per query is alive (a launch
// requested meanwhile makes it rescan), the loop parks for the first message
// before its first Receive, and schedule never returns while its pass is
// alive, so a failed query invokes nothing after its sweep.
// TestSealNeverBehindLaunch holds every awaited stage of a 260-worker q12 to
// a seal within 100 ms of its last winner.
//
// Straggler speculation (§5.5's aggressive-timeouts-and-retries theme)
// applies per stage: once a quorum of a stage's workers sealed and a
// straggler outlives a multiple of the median response time, both counted
// from each worker's own Invoke, the scheduler re-invokes it as a new
// attempt — once (speculateRetries), the same bound a failure relaunch
// counts against. A round's object names are versioned by
// attempt (s<stage>/p<part>/a<attempt>-snd<sender>, or s<stage>/snd<sender>-
// a<attempt> write-combined), so a backup never races the original's files:
// readers take the attempt the driver sealed — the first whose seal message
// arrived, whatever later attempts commit (TestStagedReadsTheSealedWinner) —
// and since fragments are deterministic, every attempt's files are
// byte-identical: whichever attempt wins, the rows collected are the same.
// The seal is the directory for cleanup as well: a staged writer's names are
// a function of its boundary, its worker number and its attempt
// (exchange.Written), and the driver knows every attempt it invoked — the
// winners, the speculation losers, the relaunched failures — so after the
// query, whether it succeeded or failed, it deletes exactly those objects by
// key, one DeleteObjects per shard bucket, and lists nothing. Only what no
// live driver can name is listed: the stale-drain collector (exchange.Sweep)
// runs over the query's whole prefix after a query at epoch > 1, where an
// earlier run of the same ID may have left debris, and before the epoch GC
// drops an expired fence (TestStagedKeyedDeleteListsNothing,
// TestStagedStaleArtifactsDoNotPoisonRetry, TestEpochSweepTTL).
//
// Stage fragments are ordinary engine plans executed by engine.Execute, and
// every boundary preserves row order (partition rows in sender order,
// senders in ascending ID order, driver merges in worker order), so staged
// execution is fully deterministic — pipelined launch, speculation and
// all — and, for order-insensitive aggregates (COUNT,
// integer SUM, MIN/MAX) under an ORDER BY, byte-identical to single-node
// execution at any worker/partition/attempt count; floating-point SUM/AVG
// agree to last-ulp rounding, as the split changes the summation order.
//
// # Query-epoch fence
//
// The serverless model has no cluster membership, so nothing tells the
// driver that workers of an earlier run still exist. A fresh driver on the
// same deployment restarts query numbering, and an aborted
// identically-numbered run leaves seal messages and boundary files under the
// same query ID — at rest, or posted by one of its workers still in flight
// at any moment of the retry. No purge or sweep before the launch could win
// that race; the epoch fence closes it structurally, so none runs. The
// lifecycle of every query whose plan
// has a boundary (a plan without one publishes nothing a zombie could
// poison, posts at epoch 0 to a queue that dies with the query, and takes
// no fence):
//
//	acquire   the driver atomically increments the query's epoch item in
//	          the <fn>-stages DynamoDB table (conditional Put; the durable
//	          counter itself is the uniqueness source — no wall clock, no
//	          randomness, so DES runs stay deterministic). A query ID is
//	          fresh, so the first try is a conditional create of epoch 1, one
//	          write and no read; only a restarted driver reusing the ID fails
//	          it, reads the item and increments what it read
//	stamp     the epoch rides in every worker payload, every seal message,
//	          every ready-marker key (q<N>/e<E>/s<stage>) and the whole
//	          boundary namespace
//	          (<fn>/q<N>/e<E>/s<stage>/p<part>/a<attempt>-snd<sender>)
//	discard   the scheduler drops seal messages whose epoch is not the
//	          current one; consumers wait on this epoch's ready markers
//	          and collect under this epoch's prefix, so an older epoch's
//	          artifacts are invisible rather than merely improbable
//	reclaim   after the query the driver deletes its own objects by key,
//	          behind the result (a DES process of its own; a traced query
//	          waits for it). At epoch > 1 it sweeps the query's whole prefix
//	          across epochs instead, before the query returns, reclaiming the
//	          zombies' debris (the only LIST a staged query bills). Either is
//	          best effort: what a failed delete leaves, the epoch GC sweeps
//	          from an expired fence's prefix, with its ready markers, before
//	          the fence goes
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
// marker's key, a driverless round's commit waits on its commit prefix,
// result collectors on the result queue's topic. Every such barrier runs arm,
// check, park (simenv.Barrier): it registers its waiter entry on the topic
// (simclock.Proc.Arm), then checks its condition — a Get, a Receive, a pass
// of Lists, each taking a request's virtual latency — and then parks on the
// entry (Park) or, the condition met, withdraws it (Disarm). A matching write
// that lands while the check is in flight marks the entry, and the park
// returns at once: the barrier cannot lose the wake-up it was checking for.
// A waiter wakes at the exact virtual instant of the matching write —
// removing the up-to-one-poll residual from modeled latencies — while a
// hundred-sender shuffle no longer wakes every parked barrier in the
// simulation on each Put (Report.Wakeups counts the delivered wakeups). The
// timed poll remains the fallback for waiters whose write never comes. A
// functional-mode goroutine (simenv.Immediate) arms nothing: it parks through
// simenv.WaitNotifyKey, and every wake-up charges the full interval. A driverless round's commit
// discovery is batched: one List of the round's commit namespace per shard
// bucket per pass, only of buckets still hosting an unseen writer, and an
// object naming a writer outside the round fails the collect with a
// boundary-shape error instead of being counted; exchange.Sweep deletes
// through the batched DeleteObjects API. Liveness holes in speculation are
// covered by the per-stage MaxStageWait cap: a runnable stage that goes
// that long without any worker response (the window restarts on every
// response) has its missing workers re-invoked as the next attempt — the
// no-response and sub-quorum stalls quorum arithmetic can never arm for. A
// worker the admission cap held back gets the whole window from its own
// Invoke, so it is not backed up the moment its token comes.
//
// # Resident query service
//
// The driver is a resident session, and there is no other driver type. A
// driver.Session binds to a deployment once — installs the worker function,
// owns the admission controller, the result cache and the footers of the
// files it has opened — and then runs many queries, sequentially or
// concurrently, against that warm state, each on the environment its caller
// passes in (a one-shot CLI run is one query on one). Each query runs on its
// own per-query scheduler with three isolation planes:
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
// caller's knowledge). Workers never see the table. Each gets its files'
// footers from the query's own opens, shipped in its payload as the bytes the
// open read, so a Drop while the query runs takes nothing from it. The
// contract therefore covers the data reads as well as the plan — build sides
// included, which every worker reads through the footer the planner saw: a
// file overwritten behind the session's back, or by an UploadTable that
// overlaps a query scanning it, can be read through its old footer. Two
// rules keep it safe under concurrent queries: it never makes one query wait
// for another's open (two that miss together both read; under DES
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
// span is opened. It classifies errors
// retryable-vs-fatal (a registry the services feed, e.g. S3 SlowDown), backs
// off with decorrelated jitter — a pure hash of (scope seed, op, attempt),
// virtual-time-safe because waits go through simenv, and never a draw from a
// service's latency sampler, so one client's retry cannot move another's
// latencies — and charges every retry against a per-scope budget. The backoff
// runs from 25 ms (backoffBase) to at most 2 s a delay (backoffCap), and an
// operation gets at most 10 retries (maxRetries). A scope is
// one Policy value: the driver side of a query holds one, each worker
// invocation one of its own, and every call of the scope runs under it — SQS,
// DynamoDB, Lambda, and S3 through s3.WithPolicy, the driver's planning
// reads, sweeps and table uploads included — so one budget bounds them all
// and Report.DriverRetries / WorkerRetries count them all.
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
// that cannot progress fails fast with a structured *StageFailure, and the
// driver deletes what its attempts wrote by key, as after a success. Epoch
// fence items themselves are garbage-collected lazily: every
// epochGCInterval-th (64th) acquireEpoch of a session deletes epoch/<query>
// items older than epochTTL (24 hours) of virtual time, each after a sweep of its query's prefix and the deletion of its
// ready markers — the next run of that ID starts at epoch 1, lists nothing,
// and waits on markers under the first run's names.
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
//	         a regroup stage's is named regroup-<producer>)
//	invoke   one Lambda worker invocation (an attempt; tags carry worker,
//	         query, stage, attempt, fault/timeout outcomes)
//	phase    one step of an invocation, in turn: cold-start | warm, then the
//	         worker path's spawn (tree children hang under it), wait-sealed
//	         (polls), collect (bytes.in, gets), regroup, execute (rows.out;
//	         the scan reads the engine pulls), publish (bytes.out), post —
//	         they tile the invocation, so every op under it lies in one; and
//	         the driver's plan, launch (one per pass that invokes), merge and
//	         cleanup under the query
//	op       one substrate call (s3.getrange, sqs.Receive, dynamo.PutIf,
//	         lambda.Invoke, …; tags carry retries and outcome)
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
// folds it into an EXPLAIN ANALYZE record, one row per stage: launched,
// first and last winner, sealed, attempts, billed cost in exact units and
// dollars, and the worker time of each phase summed over the fleet and its
// longest — Figure 11's split into invocation, fetch, process and return.
// Then the critical path — obs.CriticalPath extracts the latency-bounding
// chain with one sorted sweep (near-linear; the quadratic definition is
// kept as the test reference), whose segments tile the query span exactly,
// so their durations sum to the end-to-end virtual latency — folded into
// at most 60 runs of (stage, phase). The analyses share one obs.Tree, the
// recording's child index. The CLI prints the stage table under every
// query, with its trace columns under -profile, the critical path under
// -profile (span by span with -v), and writes a Chrome trace-event JSON
// file under -trace-out (loadable in Perfetto; validated by cmd/tracecheck
// and `make trace-smoke`, which reject a phase outside its invocation or
// overlapping another of its phases). Timestamps come from the virtual clock and span
// IDs from call order, so under the DES kernel two runs of the same
// seeded query export byte-identical traces — the determinism suite
// asserts this with the chaos plan active on both exchange variants.
//
// # Chunk pooling
//
// Hot paths avoid the allocator: columnar.Pool recycles vectors, chunks and
// selection vectors between morsels. The ownership contract is documented
// on columnar.Pool — in short, only a buffer's owner returns it, once
// nothing reads it, at one of four points: a scan.Source after it has
// gathered a row group's decoded pages by their per-page selections into
// the chunk it yields; an expression temporary (engine.Expr.Eval) once its
// parent has read it; the aggregation breaker once it has folded the
// morsel; and the same breaker, which then hands the chunk the scan yielded
// back to its source (engine.Recycler), whose next row group gathers into
// it. Sinks that keep their chunks — collect, sort, limit — hand none back.
// A scan.Source keeps two pools, one for page-long vectors and one for the
// row-group-long chunks it yields. A Pool belongs to one scan source or one
// pipeline and is a mutex and free lists that die with it, not a sync.Pool:
// per-query sync.Pools stay reachable through the runtime's registry for two
// collections after the query is gone.
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
//   - An lpq.DecodeState owns the inflate buffer, one gzip reader, Reset
//     from page to page, and the dictionary of the page it decodes. Whoever
//     decodes holds one per goroutine: lpq.ReadFiles and Reader.ReadAll one
//     per whole file, a scan.Source a free list of them for its
//     row-group and page fetchers. Pages are decoded onto the destination
//     vector directly — a scan's onto vectors of its pool
//     (DecodeState.DecodePageOnto); decoded values never alias the state.
//   - A ranged GET's reply is the buffer a reader decodes from: a span one
//     request covers comes back from s3fs as the reply itself, and only a
//     span split over several requests is copied into one buffer.
//   - A publishing worker partitions in one pass (exchange's scatter: a slot
//     id per row, a histogram, prefix sums, one permuted copy per column,
//     stable within a slot), so a partition and a §4.4.2 group of
//     consecutive partitions are Slice views of the one scattered chunk,
//     and encodes slot after slot into a single buffer. Write-combining
//     senders Put that buffer whole with the slot offsets in the object
//     name; the others Put its slices. A collecting worker hands what it
//     fetched to lpq.ReadFiles, which opens the footers, sizes the output
//     chunk once from their row counts and decodes every blob into its
//     place.
//
// None of this moved a byte: the writer's output and every boundary's
// object names, sizes and contents are pinned by golden tables recorded
// before the byte path was rebuilt (internal/lpq/testdata,
// internal/exchange/testdata), which is why shaped transfer times, billed
// bytes and therefore every modeled latency and dollar stayed bit-identical
// across the change. Allocation-regression tests in both packages bound the
// bytes a small file, a streamed file, a page decode and a publish may cost.
//
// The memory limit is one budget and one decoder, and internal/engine owns the
// budget, where the worker and the planner both import it. §3.3 has the worker
// start its engine "with a memory limit slightly lower than that of the
// serverless function such that it can report out-of-memory situations …
// rather than dying silently": the engine budget (engine.MemoryBudget) is the
// function's memory less 192 MiB, and a working set needs 3× its input within
// it (engine.CheckWorkingSet). A scanned row group is held to the budget
// twice: its kept rows × projected widths, from the footer before any of its
// bytes are fetched (scan.Pinned's bound), and its chunk as it streams past;
// the inputs a task holds whole — its build sides, the partitions it
// collected, or a regroup's group — share one third of the budget
// (engine.ResidentBudget), a build side charged from its footers (twice its
// rows × projected widths: the build pipeline holds the scanned chunks and the
// one it concatenates them into) before the task's first request window. The
// fragment says what is a build side: a table is charged when a hash join's
// build input is a bare scan of it, the operator that keeps its rows. A few
// bytes of lpq can claim any number of rows (a run is two varints), so every
// lpq byte from S3, a payload, a result message or the result cache is decoded
// by lpq.ReadFiles, which sums the rows × widths its footers claim and
// refuses, typed, before it allocates past its bound: on a worker the bound is
// what is left of the resident budget, and the refusal is its
// engine.ErrWorkerOOM failure seal; the driver holds each result to the engine
// budget of the worker that held it, and a cache entry to the size it was
// stored at. Only the driverless exchange (CollectStage, RegroupStage, the
// grid's Worker.Run) decodes unbounded: it reads what its own process wrote.
//
// # Testing: one differential harness
//
// staged ≡ single-node is checked in one place. A case of internal/driver's
// harness (runCase) is a query over the TPC-H fixture — LINEITEM, ORDERS,
// SUPPLIER at SF 0.002 from one seed — and the configuration it runs under:
// file counts, partitions, broadcast limit, exchange levels and write
// combining, an admission cap, speculation, a seeded fault plan, and DES,
// chaos or goroutine workers. Every case
// checks four things: its rows are byte-identical to engine.Execute on one
// node (within a stated tolerance for float sums); a second DES run replays
// its rows, Duration and Cost exactly — through RunSQL when the query scans
// one table at the default configuration, so both entrances must plan, run
// and bill alike; the leak audit finds nothing of it on the substrate, failed
// cases included; and a plan the planner refuses fails with ErrInvalidPlan
// before any Invoke. Options pin what a caller knows of the plan — stage,
// worker and regroup counts, variants, wave gating, request inflation under
// faults.
//
// The recovery paths are checked the same way, by three scenarios held to
// that contract and to counts of their own. Stall: attempt 0 of one, all or
// all but one worker of a stage sleeps, with speculation on and a 20 s
// liveness cap; the stage backs up exactly the stalled workers, an untraced
// run returns its rows before the stall is over and before a speculation-off
// twin does, and a loser that publishes after the query deletes what it
// wrote. Zombie: the query runs as the retry of an aborted run of q1 — its
// epoch fence, committed boundary objects under q1/e1 and stale seals on
// q1's queue are there, and more q1/e1 objects, a stale-epoch seal and two
// strays (worker −1 and worker n) arrive mid-run; the retry runs at epoch 2,
// discards all five seals, relaunches nothing and sweeps the debris.
// Concurrent n: the query and n−1 generated peers run at once on one session
// under an admission cap; each answers as it would alone, their traced costs
// sum to what the meter moved, and the cap binds and gets every token back.
//
// genCase(seed) draws cases from a table of operators keyed by input and
// output types, so every query is type-correct by construction; seeds 1–3
// are Q1, Q6 and Q12, and TestGeneratedPlans requires its seeds to cover both
// merge arms, a bare shuffle join, a broadcast, two-round
// boundaries with and without write combining, a binding admission cap and a
// fault plan that forced a relaunch or a speculation; from seed 27 on each
// case also runs a recovery scenario, and the seeds must cover a straggler
// backed up, a stalled fleet the liveness cap re-invoked, a stall behind the
// admission cap, a fenced zombie and concurrent queries (make chaos runs
// those and the faulted seeds under the race detector). A failing case is
// shrunk greedily — config knobs back to their defaults, files, LIMIT, WHERE
// conjuncts, aggregates, unreferenced joins — and printed with its seed and
// the command that replays it, for example
//
//	go test ./internal/driver/ -run '^TestGeneratedPlans$/^seed=17$'
//
// FuzzGeneratedPlan (make fuzz-smoke) runs any seed.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section; bench/ holds the repository's two-clock
// benchmark (see bench/README.md).
package lambada
