package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/stageplan"
	"lambada/internal/worker"
)

// StageConfig tunes the planner (internal/stageplan: the query as a DAG of
// stages connected by exchange boundaries) and the boundaries of the plans it
// makes. A plan without a boundary reads MaxStageWait and nothing else of it.
type StageConfig struct {
	// Exchange configures the boundaries: the base of every boundary's
	// variant (write combining, the pinned round count) and receiver polling.
	Exchange ExchangeConfig
	// Partitions is the fan-in of every boundary — join stages and final
	// aggregation stages run this many workers. 0 autotunes the fan-in from
	// the lpq footer row counts (stageplan.AutoRowsPerPartition rows per
	// partition, at most stageplan.MaxAutoPartitions).
	Partitions int
	// BroadcastRowLimit: a join build side of at most this many rows (per
	// the lpq file footers) is broadcast instead of shuffled: its files ride
	// pinned in the payloads of the stage that joins it, and every worker
	// of that stage reads it whole (0 = stageplan's default; negative =
	// never broadcast).
	BroadcastRowLimit int64
	// MaxStageWait is the no-progress liveness cap: under speculation, a
	// runnable stage (producers sealed) that goes this long without ANY
	// worker response — the window restarts on every response — has its
	// whole missing set re-invoked as the next attempt. This covers the
	// cases the quorum/median policy can never arm for: no response at all,
	// and a sub-quorum stall. 0 disables the cap.
	MaxStageWait time.Duration
}

// DefaultStageConfig shuffles through the write-combining exchange with
// autotuned partition counts and a one-minute all-stragglers cap.
func DefaultStageConfig() StageConfig {
	return StageConfig{Exchange: DefaultExchangeConfig(), MaxStageWait: time.Minute}
}

// TableFiles maps each base table of a query to its lpq files on S3.
type TableFiles = worker.TableFiles

// stagesTableName names the DynamoDB seal/ready table of an installation.
func stagesTableName(fn string) string { return fn + "-stages" }

// epochKey names the durable per-query epoch item in the stages table.
func epochKey(queryID string) string { return "epoch/" + queryID }

// queryPrefix is the boundary namespace of every run of queryID: each run
// publishes under its fenced e<epoch> sub-prefix.
func queryPrefix(fn, queryID string) string { return fn + "/" + queryID + "/" }

// acquireEpoch durably fences this run of queryID: it atomically increments
// the query's epoch item with a conditional Put, so two drivers reusing the
// same query ID (a fresh driver on the same deployment restarts query
// numbering) always land in distinct epochs, and the older run's in-flight
// workers are structurally unable to satisfy the newer run's barriers —
// their seals, ready markers and boundary files all carry the losing epoch.
// The uniqueness source is the durable counter itself (no wall clock, no
// randomness), so DES runs stay deterministic.
//
// Every query ID a session issues is fresh, so the first try is one write and
// no read: a conditional create of epoch 1, which fails only where the item
// exists — a restarted driver reusing the ID. Only then is the item read and
// incremented, each increment conditional on the value read.
func (d *query) acquireEpoch(table, queryID string) (int, error) {
	if d.s.bumpEpochAcquires() {
		d.sweepEpochs(table)
	}
	key := epochKey(queryID)
	for read := false; ; read = true {
		var cur []byte
		if read {
			err := d.retry.Do(d.env, "dynamo.Get", func() error {
				var gerr error
				cur, gerr = d.dep.Dynamo.Get(d.env, table, key)
				return gerr
			})
			if errors.Is(err, dynamo.ErrNoSuchItem) {
				cur = nil
			} else if err != nil {
				return 0, err
			}
		}
		next := 1
		if cur != nil {
			prev, _, ok := parseEpochValue(cur)
			if !ok {
				return 0, fmt.Errorf("driver: corrupt epoch item %s/%s: %q", table, key, cur)
			}
			next = prev + 1
		}
		val := formatEpochValue(next, int64(d.env.Now()))
		putErr := d.retry.Do(d.env, "dynamo.PutIf", func() error {
			return d.dep.Dynamo.PutIf(d.env, table, key, val, cur)
		})
		if putErr == nil {
			return next, nil
		}
		if !errors.Is(putErr, dynamo.ErrConditionFailed) {
			return 0, putErr
		}
		// The item exists, or a concurrent driver won the increment race:
		// read it, go again.
	}
}

// formatEpochValue encodes an epoch item: parseEpochValue's inverse.
func formatEpochValue(epoch int, at int64) []byte {
	return []byte(fmt.Sprintf("%d@%d", epoch, at))
}

// parseEpochValue decodes an epoch item, "<epoch>@<writtenAtNs>". The
// timestamp is the virtual write instant, used only to age items out. Any
// other form is corrupt — a bare epoch, an epoch below 1, a negative instant:
// acquireEpoch never writes one, and a run at epoch 0 would fence nothing and
// clean up nothing.
func parseEpochValue(v []byte) (epoch int, at int64, ok bool) {
	e, ts, _ := strings.Cut(string(v), "@")
	epoch, err := strconv.Atoi(e)
	if err == nil {
		at, err = strconv.ParseInt(ts, 10, 64)
	}
	if err != nil || epoch < 1 || at < 0 {
		return 0, 0, false
	}
	return epoch, at, true
}

// sweepEpochs lazily deletes expired epoch fence items — without it the
// stages table accumulates one item per query ID ever run on the
// deployment. An item expires once epochTTL of virtual time passed since
// its last increment; the TTL must exceed the function timeout, so no
// worker of a fenced run can still be alive when its fence goes. Before an
// item goes, what its runs left is reclaimed: the query's prefix is swept
// (exchange.Sweep, every epoch, the full bucket pool), and its ready markers
// (<queryID>/e<E>/s<N>) are deleted. The next run of that ID starts at epoch
// 1 again, and a query at epoch 1 deletes only what it wrote itself, so the
// debris would otherwise outlive its fence for good — and the markers would
// seal the new run's stages with the old run's manifests. Best effort:
// errors are ignored, and an item whose reclaim failed is kept for the next
// sweep to retry; the delete/re-acquire race is safe — acquireEpoch's
// conditional Put with a non-nil expect fails on a missing item and re-reads.
func (d *query) sweepEpochs(table string) {
	items, err := d.dep.Dynamo.Scan(d.env, table, "epoch/")
	if err != nil {
		return
	}
	cutoff := int64(d.env.Now()) - int64(epochTTL)
	buckets := d.s.InstallExchange()
	for _, it := range items {
		if _, at, ok := parseEpochValue(it.Value); !ok || at >= cutoff {
			continue
		}
		queryID := strings.TrimPrefix(it.Key, epochKey(""))
		_, err := exchange.Sweep(d.client(), buckets, queryPrefix(d.cfg.FunctionName, queryID))
		var markers []dynamo.Item
		if err == nil {
			markers, err = d.dep.Dynamo.Scan(d.env, table, queryID+"/")
		}
		for _, m := range markers {
			if err == nil {
				err = d.dep.Dynamo.Delete(d.env, table, m.Key)
			}
		}
		if err == nil {
			d.dep.Dynamo.Delete(d.env, table, it.Key)
		}
	}
}

// StageFailure is the structured terminal error of a staged query: a worker
// posted a failure seal the scheduler could not — or must not — retry away.
// Retryable distinguishes an exhausted relaunch budget (transient causes,
// crash-class errors, spent retry budgets) from a deterministic plan or
// data error that no relaunch would fix.
type StageFailure struct {
	QueryID   string
	Stage     int
	Worker    int
	Attempt   int
	Retryable bool
	Msg       string
}

func (e *StageFailure) Error() string {
	return fmt.Sprintf("driver: stage %d worker %d failed: %s", e.Stage, e.Worker, e.Msg)
}

// ErrInvalidPlan marks a query the planner refused — a column or table the
// schemas do not have, a shape the stage planner cannot decompose — as
// opposed to one that failed while running: the fault is the caller's, and
// no worker was invoked.
var ErrInvalidPlan = errors.New("driver: query does not plan")

// launchUnit is one driver-side Invoke of a stage launch: a worker's
// attempt-0 payload, with its children's shares in it when the fleet goes
// through the invocation tree (§4.2). workers are the containers the Invoke
// spawns — the invoked worker first, then its children — and their count is
// what it holds of admission. Every unit, direct or first-generation, is a
// pipelined Invoke paced at the requester pool's rate.
type launchUnit struct {
	workers []int
	body    []byte
}

// launchUnits builds a stage's launch units, and is where the invocation
// policy is decided, per stage: a fleet goes through the tree only where
// invoke.UseTree finds it starts sooner than from the driver's pool at the
// deployment's mean cold start — a scan fleet of hundreds, not the final
// merge of a wide query. Under a concurrency cap every unit is a single
// worker, so a partial grant still launches something.
func (d *query) launchUnits(r *stageRun) ([]launchUnit, error) {
	tree := d.adm.Capacity() <= 0 &&
		invoke.UseTree(d.adm.Pacing(), invoke.WorkerPacing(d.cfg.Region), d.dep.Lambda.ColdStart(), len(r.shares))
	// children[w] are the workers that unit w's worker invokes in turn: none
	// in a direct launch, where every worker is a unit; TreeFanout's split
	// in a tree, whose first generation is workers 0..g-1.
	children := make([][]int, len(r.shares))
	if tree {
		_, children = invoke.TreeFanout(len(r.shares))
	}
	units := make([]launchUnit, len(children))
	for w, kids := range children {
		p := r.task.ForWorker(r.shares[w])
		for _, c := range kids {
			p.Children = append(p.Children, r.shares[c])
		}
		body, err := json.Marshal(&p)
		if err != nil {
			return nil, err
		}
		units[w] = launchUnit{workers: append([]int{w}, kids...), body: body}
	}
	return units, nil
}

// invoke issues one unit's Invoke from env, its admission tokens already
// taken and its pacing slot already slept. Like every substrate call the
// driver makes it runs under the query's retry policy:
// transient invoke errors retry with backoff, quota rejections
// (throttle-class Invoke errors are permanent capacity answers, not blips)
// and payload errors stay fatal. span — the stage span — parents the
// invocation's trace span (tree children parent under their invoking
// first-generation worker instead, mirroring the real invocation topology).
func (d *query) invoke(env simenv.Env, u launchUnit, span obs.SpanID) error {
	err := d.retry.Do(env, "lambda.Invoke", func() error {
		return d.dep.Lambda.Invoke(env, d.cfg.FunctionName, u.body,
			lambdasvc.InvokeOptions{WorkerID: u.workers[0], Pipelined: true, Span: span})
	})
	if err != nil {
		// Invoke fails before any container spawns: hand the tokens back.
		d.adm.Release(len(u.workers))
	}
	return err
}

// reinvoke launches the next attempt of one worker — a failure relaunch or a
// speculation backup. Recovery traffic must not queue behind tokens held by
// workers parked on the very fragment being recovered, so it is admitted
// past the cap (counted in Overflow) instead of waiting; it is stamped per
// (worker, attempt), so it never goes through the tree.
func (d *query) reinvoke(r *stageRun, w int) error {
	p := r.task.ForWorker(r.shares[w])
	p.Attempt = r.attempts[w]
	body, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	d.adm.AcquireOverflow()
	d.adm.Pace(d.env)
	return d.invoke(d.env, launchUnit{workers: []int{w}, body: body}, r.span)
}

// plan is the planner, the one way from a logical plan to runStages: footer
// schemas and statistics of the S3 tables the plan scans, Optimize, Decompose
// (joins shuffle or broadcast per the footer row counts, the aggregate merges
// on the driver or behind a repartition per the footer bounds of its group
// keys; every fleet sized, every boundary's algorithm chosen, every regroup
// round a stage), and pruned file assignment: each table's kept files are
// pinned once, a broadcast join's build side — §3.2's "small amounts of
// data", which has no filter and so keeps every file — like any other, and
// the workers read them all themselves: the driver reads no table data.
// runStages runs the DAG as given.
func (d *query) plan(plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	d.begin()
	d.dep.Trace.Phase(d.env, "plan", d.env.Now())

	// Planning reads the footers of the tables the plan scans — a registered
	// table the query does not touch costs it nothing and cannot fail it — in
	// sorted order, because the request sequence must not follow map
	// iteration. The files the session has not opened before are opened
	// through one request window; the rest cost no request.
	scanned := TableFiles{}
	engine.VisitScans(plan, func(s *engine.ScanPlan) { scanned[s.Table] = nil })
	names := scanned.Names()
	stats := stageplan.Stats{Rows: map[string]int64{}, Workers: map[string]int{}}
	optCat := engine.Catalog{}
	driverClient := d.client()
	srcs := map[string]*scan.Source{}
	all := make([]*scan.Source, len(names))
	for i, name := range names {
		files, ok := tables[name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: no table %q", ErrInvalidPlan, name)
		}
		if len(files) == 0 {
			return nil, nil, fmt.Errorf("driver: table %q has no files", name)
		}
		all[i] = d.source(driverClient, files...)
		srcs[name] = all[i]
	}
	if err := scan.OpenAll(all...); err != nil {
		return nil, nil, fmt.Errorf("driver: opening the plan's tables: %w", err)
	}
	for _, name := range names {
		// Every footer is here: the plan is optimized against the one schema
		// all of a table's files carry, or refused before any worker runs.
		schema, err := srcs[name].CommonSchema()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: table %q: %w", ErrInvalidPlan, name, err)
		}
		optCat[name] = engine.NewMemSource(schema)
	}

	opt, err := engine.Optimize(plan, optCat)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrInvalidPlan, err)
	}

	// Pruning-aware fan-out, from the pushed-down predicates — collected here
	// because Decompose rewrites the plan in place — and, per file, the rows
	// its footer statistics let them match: their sum sizes the stage DAG, not
	// the full table, and a file with none gets no scan worker at all — fewer
	// invocations, and the surviving workers still prune at row-group/page
	// granularity. A table the plan scans more than once keeps every file:
	// its one file list serves every scan of it, and each scan prunes its row
	// groups itself.
	tablePreds, scans := map[string][]lpq.Predicate{}, map[string]int{}
	engine.VisitScans(opt, func(s *engine.ScanPlan) {
		tablePreds[s.Table] = s.Prune
		scans[s.Table]++
	})
	scanFiles := TableFiles{}
	for _, name := range names {
		src, preds := srcs[name], tablePreds[name]
		if scans[name] > 1 {
			preds = nil
		}
		var kept []scan.FileRef
		for _, f := range src.Files {
			rows, err := src.EstimateFileRows(f, preds)
			if err != nil {
				return nil, nil, fmt.Errorf("driver: estimating %q file rows: %w", name, err)
			}
			stats.Rows[name] += rows
			if rows > 0 || len(preds) == 0 {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			// Every file pruned: keep one worker alive so the stage still
			// launches and seals (exchange consumers wait on its senders);
			// its scan prunes the footer it was given and reads nothing.
			kept = src.Files[:1]
		}
		// Each worker gets its files' footers in its payload, from this
		// query's own source: it opens nothing, and a concurrent Drop of the
		// session's table cannot take them away halfway through the query.
		pinned, err := src.Pin(kept)
		if err != nil {
			return nil, nil, fmt.Errorf("driver: opening %q: %w", name, err)
		}
		f := d.cfg.FilesPerWorker
		scanFiles[name], stats.Workers[name] = pinned, (len(kept)+f-1)/f // F files per worker
	}
	// Asked by Decompose for the group keys of the plan's aggregate only.
	stats.Bounds = func(table, column string) (lo, hi int64, ok bool) {
		return srcs[table].Bounds(column)
	}

	sp, err := stageplan.Decompose(opt, stats, stageplan.Config{
		Partitions:        cfg.Partitions,
		BroadcastRowLimit: cfg.BroadcastRowLimit,
		Exchange:          cfg.Exchange.Variant,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrInvalidPlan, err)
	}
	return d.runStages(sp, scanFiles, cfg)
}

// runStages is the executor — the one place a query's fleet is launched and
// its result queue is read. It runs any stage plan, from one stage posting
// to the driver to a multi-level shuffle DAG, in three steps: setup
// (openNamespace, newScheduler) builds every fleet's payloads; the event loop
// (schedule) does the I/O the scheduler type's transitions ask for — stages
// are invoked before their producers seal (consumer cold starts overlap
// upstream execution), workers report completion through the SQS result
// queue (seal), the driver records stage readiness in DynamoDB (the
// notify-driven barrier gating consumer collects, whose value is the manifest
// they collect by), retryable failure seals
// and Config.Speculate's stragglers are re-invoked as attempt-versioned
// backups whose boundary publishes cannot race the originals' (the first
// sealed attempt per worker wins); the finish merges, starts the reclaim of
// what the query wrote — on the DES kernel it runs behind the result, so the
// query returns at its merge — and reports. It all runs on the query's
// private result queue and retry scope, so N of these interleave on one
// session.
//
// A plan pays only for the machinery it uses, by two rules that hold for
// every plan:
//
//  1. The boundary namespace — shard buckets, stages table, the durable
//     epoch fence and the keyed delete of the boundary objects — exists iff
//     some stage has an Output. A plan without boundaries runs at epoch 0 and
//     issues no DynamoDB or S3 LIST request at all; one with boundaries lists
//     nothing either unless its epoch is past 1, and its fence is one write.
//  2. A stage has a DynamoDB ready marker iff it has inputs: one item, keyed
//     by its own stage ID, written when the last stage its inputs name as
//     Ready seals, and holding every input's manifest. A scan stage waits on
//     nothing and the result stage's seal completes no marker.
//
// scanFiles holds each scanned table's files, pinned, shipped inside the
// payloads that scan them.
func (d *query) runStages(sp *stageplan.Plan, scanFiles TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	resultStage := sp.ResultStage()
	if resultStage == nil {
		return nil, nil, fmt.Errorf("driver: stage plan has no result stage")
	}
	ns, epoch, err := d.openNamespace(sp, cfg)
	if err != nil {
		return nil, nil, err
	}
	tr := d.dep.Trace
	s, err := d.newScheduler(sp, scanFiles, cfg, ns, epoch)
	var result *columnar.Chunk
	if err == nil {
		tr.EndPhase(d.env, d.env.Now()) // plan
		if err = d.schedule(s, ns.SealTable); err == nil {
			result, err = d.merge(s, sp, resultStage)
		}
	}
	tr.EndPhase(d.env, d.env.Now()) // merge, or what an error left open

	// Reclaim the boundary namespace — winner files and loser attempts
	// alike — whether the query succeeded or not. On success every stage
	// sealed, so no winner is still publishing.
	d.reclaim(s, ns, epoch)
	if err != nil {
		d.quiesce(false)
		return nil, nil, err
	}
	return result, d.report(s, sp), nil
}

// merge is the driver scope: it merges the result stage's outputs in worker
// order (the arrival order is racy; worker order makes the merge
// deterministic), each bounded by the engine budget of the worker that held
// it.
func (d *query) merge(s *scheduler, sp *stageplan.Plan, resultStage *stageplan.Stage) (*columnar.Chunk, error) {
	d.dep.Trace.Phase(d.env, "merge", d.env.Now())
	var chunks []*columnar.Chunk
	for _, blob := range s.byID[resultStage.ID].chunks {
		if len(blob) == 0 {
			continue
		}
		c, err := lpq.ReadFiles(engine.MemoryBudget(d.cfg.WorkerMemoryMiB), blob)
		if err != nil {
			return nil, fmt.Errorf("decoding a worker's result: %w", engine.OutOfMemory(err))
		}
		chunks = append(chunks, c)
	}
	rs, err := resultStage.Plan.OutSchema()
	if err != nil {
		return nil, err
	}
	dcat := engine.Catalog{engine.WorkerResultTable: engine.NewMemSource(rs, chunks...)}
	return engine.Execute(sp.Driver, dcat)
}

// openNamespace sets up rule 1's machinery when sp has a boundary — the shard
// buckets, the stages table and the epoch fence — and issues no request but
// the fence's: nothing is purged or swept before the first Invoke. ns is the
// boundary namespace every task of the query shares; the prefix the payloads
// carry is the fenced e<epoch> sub-prefix of the query's. A plan without
// boundaries gets the zero namespace and epoch 0.
func (d *query) openNamespace(sp *stageplan.Plan, cfg StageConfig) (ns worker.Boundary, epoch int, err error) {
	if !slices.ContainsFunc(sp.Stages, func(st *stageplan.Stage) bool { return st.Output != nil }) {
		return ns, 0, nil
	}
	buckets := d.s.InstallExchange()
	sealTable := stagesTableName(d.cfg.FunctionName)
	d.dep.Dynamo.CreateTable(sealTable)

	// Epoch fence: durably increment this query ID's epoch before
	// anything else. Every artifact of the run — worker payloads, seal
	// messages, ready markers, the exchange boundary prefix — carries
	// the epoch, so an in-flight worker of an aborted identically-numbered
	// run cannot poison this one no matter when it wakes: its seal message
	// is discarded by scheduler.message's epoch check (counted in
	// zombieDiscards) on a queue that newQuery created and close deletes,
	// and its objects lie under another e<E> prefix, which no reader of
	// this epoch ever names. Its debris is reclaimed after the query
	// (reclaim), not raced before it.
	if epoch, err = d.acquireEpoch(sealTable, d.id); err != nil {
		return ns, 0, fmt.Errorf("driver: acquiring epoch for %s: %w", d.id, err)
	}
	return worker.Boundary{
		Buckets:   buckets,
		Prefix:    queryPrefix(d.cfg.FunctionName, d.id) + "e" + strconv.Itoa(epoch),
		PollNs:    int64(cfg.Exchange.Poll),
		MaxWaitNs: int64(cfg.Exchange.MaxWait),
		SealTable: sealTable,
	}, epoch, nil
}

// reclaim deletes what the query wrote, whether it succeeded or failed. The
// result queue goes first (free, no virtual time): a task still out — a
// speculation loser — has then posted, so published, before the delete, or
// its post fails and it deletes what it published (worker.Function.Handle).
//
// The rest is the cleanup phase. At epoch 1 it is the keyed delete of the
// objects every stage run with an output may have published — for every
// worker it invoked, every attempt 0 … attempts[w], so winners, speculation
// losers and relaunched attempts alike (scheduler.written) — one
// DeleteObjects per shard bucket, the buckets side by side in one request
// window. Those requests are free, and nobody reads the objects, so the
// delete runs behind the result: on a DES process it is a kernel process of
// its own, bound to the query span like a launch pass (quiesce waits for it
// on traced runs); on any other environment it runs inline. s is nil when
// the query failed before its scheduler existed, and then nothing was
// invoked.
//
// At epoch > 1 an earlier run of this query ID took a fence, and its zombies
// may have written under its own epochs' prefixes, names no live driver
// knows. The query's whole prefix is swept then, every epoch and the full
// bucket pool (exchange.Sweep), the keyed delete's objects with it. The
// sweep's LISTs are billed, so it runs inline, inside the query's window.
//
// Both are best effort: a query whose rows are ready does not fail over its
// scratch. What a failed delete leaves stays under the query's prefix, which
// sweepEpochs sweeps before the fence expires.
func (d *query) reclaim(s *scheduler, ns worker.Boundary, epoch int) {
	if epoch == 0 {
		return
	}
	d.dep.SQS.DeleteQueue(d.cfg.ResultQueue)
	var objs []exchange.Object
	if s != nil && epoch == 1 {
		objs, _ = s.written()
	}
	tr := d.dep.Trace
	pass := func(env simenv.Env) {
		tr.Phase(env, "cleanup", env.Now())
		client := s3.NewClient(d.dep.S3, env, s3.WithPolicy(d.retry))
		if epoch > 1 {
			_, _ = exchange.Sweep(client, ns.Buckets, queryPrefix(d.cfg.FunctionName, d.id))
		} else {
			_ = exchange.Delete(client, objs)
		}
		tr.EndPhase(env, env.Now())
	}
	p, ok := d.env.(*simclock.Proc)
	if !ok || epoch > 1 {
		pass(d.env)
		return
	}
	d.reclaiming = true
	p.Kernel().Go(d.id+"/reclaim", func(p *simclock.Proc) {
		tr.Bind(p, d.span)
		pass(p)
		tr.Pop(p)
		d.reclaiming = false
		p.NotifyKey("reclaim/" + d.cfg.ResultQueue)
	})
}

// newScheduler builds the task and shares of every fleet sp names, in launch
// order, and returns the scheduler over their stage runs, nothing launched.
// The plan fixes every fleet's size, so pipelined launch can invoke consumers
// before their producers seal.
func (d *query) newScheduler(sp *stageplan.Plan, scanFiles TableFiles, cfg StageConfig, ns worker.Boundary, epoch int) (*scheduler, error) {
	s := &scheduler{queryID: d.id, epoch: epoch, speculate: d.cfg.Speculate,
		maxStageWait: cfg.MaxStageWait, waves: d.cfg.testWaveLaunch, byID: map[int]*stageRun{}}
	for _, st := range sp.Stages {
		task, shares, err := d.stageTask(epoch, st, scanFiles, ns)
		if err != nil {
			return nil, err
		}
		r := s.add(st, task, shares)
		if tr := d.dep.Trace; tr.Enabled() {
			name := "stage-" + strconv.Itoa(st.ID)
			if producer, ok := st.RegroupOf(); ok {
				name = "regroup-" + strconv.Itoa(producer)
			}
			r.span = tr.StartSpan(obs.KindStage, name, d.span, d.env.Now())
		}
	}
	return s, nil
}

// launcher runs a query's launch passes. On a DES process a pass is a kernel
// process of its own, beside the event loop on the same clock, so the loop
// keeps consuming seals — recording the winner, writing the ready marker,
// making the dependants launchable — while a fleet is still being invoked, as
// the paper's driver keeps collecting results while its requester threads
// invoke (§4.2). On any other environment (Immediate, goroutine workers) a
// pass runs inline on the loop's goroutine: there is no timeline to overlap,
// and inline takes no lock and starts no goroutine. At most one pass is
// alive; a launch requested while it runs makes it rescan before it exits.
// The loop and the pass share the scheduler unlocked: the kernel runs one
// process at a time and switches only where one parks on the clock.
type launcher struct {
	d *query
	s *scheduler
	// running: a pass process is alive; again: a launch was requested while
	// it ran; stop: the loop is leaving, so the pass invokes nothing more.
	running, again, stop bool
	// err is a concurrent pass's error, for the loop to return.
	err error
}

// topic is what a concurrent pass broadcasts on exit, to a loop waiting for
// it to end.
func (l *launcher) topic() string { return "launch/" + l.d.cfg.ResultQueue + "/" }

// start requests a launch pass. Inline the request is the pass, and returns
// its error. Concurrently it starts a pass process — when some stage is
// launchable at all — or makes the live one rescan; it returns the error of
// the last pass, if that one failed.
func (l *launcher) start() error {
	p, ok := l.d.env.(*simclock.Proc)
	if !ok {
		return l.launchReady(l.d.env)
	}
	if l.running {
		l.again = true
		return nil
	}
	if l.err != nil || !slices.ContainsFunc(l.s.runs, l.s.launchable) {
		return l.err
	}
	l.running = true
	p.Kernel().Go(l.d.id+"/launch", l.run)
	return nil
}

// run is a concurrent pass's process. Its environment is bound to the query
// span, so its Invokes' op spans and charges land in the query's tree.
func (l *launcher) run(p *simclock.Proc) {
	tr := l.d.dep.Trace
	tr.Bind(p, l.d.span)
	for l.again = true; l.again && l.err == nil; {
		l.again = false
		l.err = l.launchReady(p)
	}
	tr.Pop(p)
	l.running = false
	if l.stop {
		p.NotifyKey(l.topic())
	}
}

// wait stops the pass at its next unit, parks the loop until the pass has
// exited, and returns its error: the loop never leaves while its pass can
// still invoke, so a failed query issues no Invoke after its cleanup.
func (l *launcher) wait() error {
	l.stop = true
	for l.running {
		simenv.Arm(l.d.env, l.topic()).Wait(l.d.cfg.PollInterval)
	}
	return l.err
}

// launchReady is one launch pass, on env, over every launchable stage in
// launch order. It invokes a stage's pending units for as long as admission
// grants their tokens, without ever blocking — a driver parked on the pool
// could not consume the seal messages that token-holding consumers are
// waiting on. Whatever the pool denies stays pending; a later pass retries it
// as other containers settle. Each unit is recorded (scheduler.launched) as
// its Invoke goes out, so a stage counts as launched from its first Invoke,
// not from the end of its pass.
func (l *launcher) launchReady(env simenv.Env) error {
	d, s, tr := l.d, l.s, l.d.dep.Trace
	// The pass is a launch phase from its first unit on: one opens while
	// env is bound to the query span and nothing under it.
	defer func() { tr.EndPhase(env, env.Now()) }()
	for _, r := range s.runs {
		if !s.launchable(r) {
			continue
		}
		if r.pending == nil {
			var err error
			if r.pending, err = d.launchUnits(r); err != nil {
				return err
			}
		}
		for len(r.pending) > 0 && !l.stop && d.adm.TryAcquire(len(r.pending[0].workers)) {
			u := r.pending[0]
			r.pending = r.pending[1:]
			from := env.Now()
			if tr.Current(env) == d.span {
				tr.Phase(env, "launch", from)
			}
			d.adm.Pace(env)
			if s.launched(r, u.workers, env.Now()) {
				tr.SetStart(r.span, env.Now())
			}
			if err := d.invoke(env, u, r.span); err != nil {
				return err
			}
			s.rep.Invocation += env.Now() - from
		}
	}
	return nil
}

// schedule is the event loop, and every substrate call of it but a
// concurrent pass's Invokes: start a launch pass, consume seal messages as
// they arrive, write the ready markers a stage's seal completes the moment
// its last worker sealed, start a pass for whatever that unblocked, and
// re-invoke what the scheduler nominates. It returns once every stage sealed,
// and never while its pass is alive: on an error the pass stops at its next
// unit and the loop waits for it.
func (d *query) schedule(s *scheduler, sealTable string) (err error) {
	tr := d.dep.Trace
	l := &launcher{d: d, s: s}
	topic := "sqs/" + d.cfg.ResultQueue
	// barrier is the park on the result queue, armed before each Receive.
	var barrier simenv.Barrier
	// window is how many Receives the next pass keeps in flight: one, until
	// they come back full — a backlog of seals — then twice as many as came
	// back full, but never more than the seals still missing could fill.
	window := 1
	defer func() {
		// A return between the Receive and the park leaves no waiter behind.
		barrier.Cancel()
		if werr := l.wait(); err == nil {
			err = werr
		}
	}()
	if err := l.start(); err != nil {
		return err
	}
	deadline := d.env.Now() + maxWait
	if l.running {
		// No worker can have posted before the pass's first Invoke: park on
		// the result queue before the first Receive rather than bill an
		// empty one.
		simenv.Arm(d.env, topic).Wait(d.cfg.PollInterval)
	}
	for !s.done() {
		// Resume partial launches: containers of this or other queries
		// settling since the last pass may have freed tokens.
		if err := l.start(); err != nil {
			return err
		}
		// Arm the park before the Receive: a seal Sent while the Receive is
		// in flight ends the park below at once, instead of waiting out a
		// whole PollInterval for a message already in the queue.
		barrier = simenv.Arm(d.env, topic)
		msgs, full, err := d.receive(window)
		if err != nil {
			return fmt.Errorf("driver: collecting seals: %w", err)
		}
		if len(msgs) > 0 {
			barrier.Cancel() // the loop Receives again without parking
		}
		for _, m := range msgs {
			rm, r, out, err := s.receipt(d.env.Now(), m.SentAt, m.Body)
			if err != nil {
				return err
			}
			switch out {
			case relaunch:
				if err := d.reinvoke(r, rm.WorkerID); err != nil {
					return fmt.Errorf("driver: relaunching stage %d worker %d: %w", rm.Stage, rm.WorkerID, err)
				}
			case sealed:
				// Seal: every worker of the stage reported through SQS.
				// Ready: for each consumer whose inputs this seal completes,
				// record its marker in DynamoDB, every input's manifest as
				// its value (the Put broadcasts the completion signal, waking
				// the consumer's workers parked in waitSealed at this exact
				// instant).
				for _, mk := range s.markers(r) {
					if err := d.retry.Do(d.env, "dynamo.Put", func() error {
						return d.dep.Dynamo.Put(d.env, sealTable, worker.SealKey(s.queryID, s.epoch, mk.run.st.ID), mk.value)
					}); err != nil {
						return err
					}
				}
				s.marked(r, m.SentAt, d.env.Now())
				if tr.Enabled() {
					tr.SetTag(r.span, "workers", strconv.Itoa(len(r.shares)))
					if r.speculated > 0 {
						tr.SetTag(r.span, "speculated", strconv.Itoa(r.speculated))
					}
					tr.EndSpan(r.span, r.sealedAt)
				}
				if err := l.start(); err != nil {
					return err
				}
				// This seal may have made already-launched consumers
				// runnable: start their liveness-cap clocks now.
				s.armCaps(d.env.Now())
			}
		}
		if s.done() {
			break
		}
		window = max(1, min(2*full, (s.missing()+receiveBatch-1)/receiveBatch))
		// Straggler speculation: backup bursts pace like any other direct
		// launch (reinvoke) — the liveness cap can re-invoke a whole stage
		// fleet at once, which must not exceed the Invoke API rate.
		for _, b := range s.stragglers(d.env.Now()) {
			if err := d.reinvoke(b.run, b.worker); err != nil {
				return fmt.Errorf("driver: backup invocation of stage %d worker %d: %w", b.run.st.ID, b.worker, err)
			}
		}
		if d.env.Now() >= deadline {
			return fmt.Errorf("driver: %d seal messages missing after %v", s.missing(), maxWait)
		}
		if len(msgs) == 0 {
			// Park on the result queue's completion topic: the loop wakes at
			// the instant the next seal lands instead of rounding the whole
			// query up to the next PollInterval tick, with the timed poll as
			// fallback — and stays parked through unrelated broadcasts
			// (boundary puts, ready markers).
			barrier.Wait(d.cfg.PollInterval)
		}
	}
	return nil
}

// report closes the query's measurement window and fills in the Report the
// scheduler's transitions have been counting into.
func (d *query) report(s *scheduler, sp *stageplan.Plan) *Report {
	// Close the cost window only after every invocation — speculation and
	// relaunch losers included — finished billing, so per-span attribution
	// and the Report deltas agree exactly (no-op when tracing is off).
	d.quiesce(true)
	endTime := d.env.Now()
	rep := s.rep // a copy: the Report must not keep the scheduler's payloads alive
	rep.QueryID, rep.Epoch = s.queryID, s.epoch
	rep.Duration = endTime - d.start
	slices.Sort(rep.WorkerProcessing)
	for _, r := range s.runs {
		ss := StageStat{
			StageID:     r.st.ID,
			Workers:     len(r.shares),
			Launched:    r.launchedAt - d.start,
			Sealed:      r.sealedAt - d.start,
			FirstWinner: r.firstWin - d.start,
			LastWinner:  r.lastWin - d.start,
			Speculated:  r.speculated,
			Span:        r.span,
		}
		if producer, ok := r.st.RegroupOf(); ok {
			ss.StageID, ss.Regroup = producer, true
		} else {
			rep.Stages++
		}
		if r.st.Output != nil {
			ss.Variant = r.st.Output.Variant.String()
		}
		rep.StageStats = append(rep.StageStats, ss)
	}
	if tr := d.dep.Trace; tr.Enabled() {
		if s.zombieDiscards > 0 {
			tr.SetTag(d.span, "zombieDiscards", strconv.Itoa(s.zombieDiscards))
		}
		if s.loserDiscards > 0 {
			tr.SetTag(d.span, "loserDiscards", strconv.Itoa(s.loserDiscards))
		}
		tr.EndSpan(d.span, endTime)
		rep.Trace, rep.Span, rep.Plan = tr, d.span, sp
	}
	d.fillCostDelta(&rep)
	return &rep
}

// receiveBatch is the most messages one SQS Receive returns.
const receiveBatch = 10

// receive reads the query's result queue under the retry policy: n Receives
// of up to receiveBatch messages each, side by side in one request window
// (simenv.Overlap), each lane bound to the driver's current span. It returns
// the messages in lane order and how many Receives came back full.
func (d *query) receive(n int) (msgs []sqs.Message, full int, err error) {
	lanes := make([]simenv.Lane, n)
	err = simenv.Overlap(d.env, d.dep.Trace, lanes, n, func(_, l int) error {
		var batch []sqs.Message
		err := d.retry.Do(&lanes[l], "sqs.Receive", func() error {
			var rerr error
			batch, rerr = d.dep.SQS.Receive(&lanes[l], d.cfg.ResultQueue, receiveBatch)
			return rerr
		})
		if len(batch) == receiveBatch {
			full++
		}
		msgs = append(msgs, batch...)
		return err
	})
	return msgs, full, err
}

// stageTask builds one stage's task, stamped with the query's epoch fence
// token, and its st.Workers shares (attempt 0). A stage that touches no
// boundary — no inputs to collect, no output to publish — ships no boundary
// spec; one that does ships the planner's inputs and output as they are, in
// ns, the query's boundary namespace. The task carries every table the
// fragment scans whole — the stage plan admits none but a broadcast join's
// build side — and each share its worker's slice of the stage's own table
// (st.Table).
func (d *query) stageTask(epoch int, st *stageplan.Stage, scanFiles TableFiles, ns worker.Boundary) (worker.Payload, []worker.Share, error) {
	n := st.Workers
	task := worker.Payload{QueryID: d.id, NumWorkers: n, ResultQueue: d.cfg.ResultQueue, StageID: st.ID, Epoch: epoch}
	if st.Plan != nil {
		var err error
		if task.Plan, err = engine.MarshalPlan(st.Plan); err != nil {
			return task, nil, err
		}
	}
	if len(st.Inputs) > 0 || st.Output != nil {
		ns.Inputs, ns.Output = st.Inputs, st.Output
		task.Boundary = &ns
	}

	tables := TableFiles{}
	engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
		if files, ok := scanFiles[s.Table]; ok {
			tables[s.Table] = files
		}
	})
	own, scansOwn := tables[st.Table]
	delete(tables, st.Table)
	if len(tables) > 0 {
		task.Tables = tables
	}

	shares := make([]worker.Share, n)
	per := (len(own) + n - 1) / n
	for w := range shares {
		shares[w].WorkerID = w
		if scansOwn {
			hi := min((w+1)*per, len(own))
			shares[w].Tables = TableFiles{st.Table: own[min(w*per, hi):hi]}
		}
	}
	return task, shares, nil
}
