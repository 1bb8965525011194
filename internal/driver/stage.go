package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
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
	"lambada/internal/resilience"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
)

// StageConfig tunes the planner (internal/stageplan: the query as a DAG of
// stages connected by exchange boundaries) and the boundaries of the plans it
// makes. A plan without a boundary reads MaxStageWait and nothing else of it.
type StageConfig struct {
	// Exchange configures the S3 boundary namespace (write combining,
	// receiver polling).
	Exchange ExchangeConfig
	// Partitions is the fan-in of every boundary — join stages and final
	// aggregation stages run this many workers. 0 autotunes the fan-in from
	// the lpq footer row counts (stageplan.AutoRowsPerPartition rows per
	// partition, at most stageplan.MaxAutoPartitions).
	Partitions int
	// BroadcastRowLimit: a join build side of at most this many rows (per
	// the lpq file footers) is loaded by the driver and broadcast inside
	// worker payloads instead of shuffled (0 = stageplan's default;
	// negative = never broadcast).
	BroadcastRowLimit int64
	// MaxStageWait is the no-progress liveness cap: under speculation, a
	// runnable stage (producers sealed) that goes this long without ANY
	// worker response — the window restarts on every response — has its
	// whole missing set re-invoked as the next attempt. This covers the
	// cases the quorum/median policy can never arm for: no response at all,
	// and a sub-quorum stall. 0 disables the cap.
	MaxStageWait time.Duration
	// ExchangeLevels forces every stage boundary's round count: 1 pins
	// single-round, 2 pins the multi-level boundary (one intermediate
	// regrouping round, §4.4.2). 0 — the default — resolves each boundary
	// from the analytic request model (stageplan.ChooseVariant) once the
	// sender fleet size is known: large fleets go multi-level automatically,
	// small ones stay single-round. Write combining is inherited from
	// Exchange.Variant.WriteCombining either way.
	ExchangeLevels int
	// MaxAutoPartitions caps the autotuned boundary fan-in
	// (0 = stageplan.MaxAutoPartitions). Paper-scale fleets raise it: with
	// multi-level boundaries the boundary request count grows as O(√P·S)
	// instead of O(S·P), so wide fan-ins stay affordable.
	MaxAutoPartitions int
}

// DefaultStageConfig shuffles through the write-combining exchange with
// autotuned partition counts and a one-minute all-stragglers cap.
func DefaultStageConfig() StageConfig {
	return StageConfig{Exchange: DefaultExchangeConfig(), MaxStageWait: time.Minute}
}

// TableFiles maps each base table of a query to its lpq files on S3.
type TableFiles map[string][]scan.FileRef

// boundarySpec is the one boundary spec a task's payload carries: which
// boundaries the task collects from and publishes into, and the namespace
// they live in. The query ID, epoch and stage ID that scope object names and
// ready markers are the payload's own.
type boundarySpec struct {
	Inputs []stageInputSpec  `json:"inputs,omitempty"`
	Output *stageplan.Output `json:"output,omitempty"`

	Buckets   []string `json:"buckets"`
	Prefix    string   `json:"prefix"`
	PollNs    int64    `json:"pollNs"`
	MaxWaitNs int64    `json:"maxWaitNs"`
	// SealTable is the DynamoDB table holding per-stage ready markers.
	SealTable string `json:"sealTable"`
}

// stageInputSpec is the planner's Input plus the runtime sender count and
// the resolved boundary variant.
type stageInputSpec struct {
	stageplan.Input
	// Senders is the producing stage's worker count.
	Senders int `json:"senders"`
	// Variant is the producing boundary's resolved exchange algorithm; the
	// collector must read with the same variant the senders wrote with.
	Variant exchange.Variant `json:"inVariant"`
}

// regroupStageID names the synthetic regroup stage of one producer's
// multi-level boundary, far above the planner's ID space (the planner
// numbers stages densely from 0). Consumers of the boundary gate their
// collects on ITS seal — the round-2 objects exist only once every regroup
// worker committed — not the producer's.
func regroupStageID(producer int) int { return 1_000_000 + producer }

// regroupStage is the regroup round of a multi-level boundary (§4.4.2,
// adapted — see exchange.RegroupStage) as a stage: Groups(P) plan-less
// workers between the producer and its consumers, worker g merging
// partition group g across all senders and republishing it per partition.
// Being an ordinary stage, it is launched, speculated, relaunched and capped
// like any other.
func regroupStage(producer *stageplan.Stage) *stageplan.Stage {
	return &stageplan.Stage{
		ID:        regroupStageID(producer.ID),
		Inputs:    []stageplan.Input{{StageID: producer.ID}},
		Output:    producer.Output,
		DependsOn: []int{producer.ID},
	}
}

// regroupOf reports whether st is a regroup stage — the only plan-less
// kind — and of which producer's boundary.
func regroupOf(st *stageplan.Stage) (producer int, ok bool) {
	if st.Plan != nil {
		return 0, false
	}
	return st.Inputs[0].StageID, true
}

// stagesTableName names the DynamoDB seal/ready table of an installation.
func stagesTableName(fn string) string { return fn + "-stages" }

// sealKey names a stage's ready marker; the epoch segment fences markers of
// an aborted identically-numbered run out of this run's barrier.
func sealKey(queryID string, epoch, stageID int) string {
	return fmt.Sprintf("%s/e%d/s%d", queryID, epoch, stageID)
}

// epochKey names the durable per-query epoch item in the stages table.
func epochKey(queryID string) string { return "epoch/" + queryID }

// acquireEpoch durably fences this run of queryID: it atomically increments
// the query's epoch item with a conditional Put, so two drivers reusing the
// same query ID (a fresh driver on the same deployment restarts query
// numbering) always land in distinct epochs, and the older run's in-flight
// workers are structurally unable to satisfy the newer run's barriers —
// their seals, ready markers and boundary files all carry the losing epoch.
// The uniqueness source is the durable counter itself (no wall clock, no
// randomness), so DES runs stay deterministic.
func (d *query) acquireEpoch(table, queryID string) (int, error) {
	if d.s.bumpEpochAcquires() {
		d.sweepEpochs(table)
	}
	key := epochKey(queryID)
	for {
		var cur []byte
		err := d.retry.Do(d.env, "dynamo.Get", func() error {
			var gerr error
			cur, gerr = d.dep.Dynamo.Get(d.env, table, key)
			return gerr
		})
		if err != nil {
			if !errors.Is(err, dynamo.ErrNoSuchItem) {
				return 0, err
			}
			cur = nil
		}
		next := 1
		if cur != nil {
			prev, _, ok := parseEpochValue(cur)
			if !ok {
				return 0, fmt.Errorf("driver: corrupt epoch item %s/%s: %q", table, key, cur)
			}
			next = prev + 1
		}
		val := []byte(fmt.Sprintf("%d@%d", next, int64(d.env.Now())))
		putErr := d.retry.Do(d.env, "dynamo.PutIf", func() error {
			return d.dep.Dynamo.PutIf(d.env, table, key, val, cur)
		})
		if putErr == nil {
			return next, nil
		}
		if !errors.Is(putErr, dynamo.ErrConditionFailed) {
			return 0, putErr
		}
		// Lost the increment race to a concurrent driver: re-read, go again.
	}
}

// parseEpochValue decodes an epoch item: "<epoch>@<writtenAtNs>" since the
// TTL sweep was introduced, a bare integer before it. The timestamp is the
// virtual write instant, used only to age items out (legacy items read as
// written at time zero, so they age out first).
func parseEpochValue(v []byte) (epoch int, at int64, ok bool) {
	s := string(v)
	if i := strings.IndexByte(s, '@'); i >= 0 {
		e, err1 := strconv.Atoi(s[:i])
		a, err2 := strconv.ParseInt(s[i+1:], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, false
		}
		return e, a, true
	}
	e, err := strconv.Atoi(s)
	if err != nil {
		return 0, 0, false
	}
	return e, 0, true
}

// sweepEpochs lazily deletes expired epoch fence items — without it the
// stages table accumulates one item per query ID ever run on the
// deployment. An item expires once EpochTTL of virtual time passed since
// its last increment; the TTL must exceed the function timeout, so no
// worker of a fenced run can still be alive when its fence goes. Best
// effort: errors are ignored (the next sweep retries), and the
// delete/re-acquire race is safe — acquireEpoch's conditional Put with a
// non-nil expect fails on a missing item and re-reads.
func (d *query) sweepEpochs(table string) {
	items, err := d.dep.Dynamo.Scan(d.env, table, "epoch/")
	if err != nil {
		return
	}
	cutoff := int64(d.env.Now()) - int64(d.cfg.EpochTTL)
	for _, it := range items {
		if _, at, ok := parseEpochValue(it.Value); ok && at < cutoff {
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

// RunSQLStaged is RunSQL over any number of S3-backed tables, with the
// planner's knobs exposed.
func (d *Driver) RunSQLStaged(sql string, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.sess.RunSQLStaged(d.env, sql, tables, cfg)
}

// launchUnit is one driver-side Invoke of a stage launch: a worker's
// attempt-0 payload, with its second-generation children folded in when the
// fleet goes through the invocation tree (§4.2). tokens is the number of
// containers the Invoke spawns, which is what it holds of admission. A tree
// unit is a synchronous, unpaced Invoke; a direct one is pipelined and paced
// at the Invoke API rate.
type launchUnit struct {
	worker int
	body   []byte
	tokens int
	tree   bool
}

// launchUnits builds a stage's launch units, and is where the invocation
// policy is decided, per stage: small fleets (the final merge of a wide
// query, say) launch directly even when big scan fleets go through the
// tree. Under a concurrency cap every unit is a single worker, so a partial
// grant still launches something.
func (d *query) launchUnits(payloads []workerPayload) ([]launchUnit, error) {
	tree := d.adm.Capacity() <= 0 && invoke.UseTree(d.cfg.TreeInvoke, len(payloads))
	// children[w] are the workers that unit w's worker invokes in turn: none
	// in a direct launch, where every worker is a unit; TreeFanout's split
	// in a tree, whose first generation is workers 0..g-1.
	children := make([][]int, len(payloads))
	if tree {
		_, children = invoke.TreeFanout(len(payloads))
	}
	units := make([]launchUnit, len(children))
	for w, kids := range children {
		p := payloads[w]
		for _, c := range kids {
			body, err := json.Marshal(&payloads[c])
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, body)
		}
		body, err := json.Marshal(&p)
		if err != nil {
			return nil, err
		}
		units[w] = launchUnit{worker: w, body: body, tokens: 1 + len(kids), tree: tree}
	}
	return units, nil
}

// invoke issues one unit's Invoke, its admission tokens already taken. Like
// every substrate call the driver makes it runs under the query's retry
// policy: transient invoke errors retry with backoff, quota rejections
// (throttle-class Invoke errors are permanent capacity answers, not blips)
// and payload errors stay fatal. span — the stage span — parents the
// invocation's trace span (tree children parent under their invoking
// first-generation worker instead, mirroring the real invocation topology).
func (d *query) invoke(u launchUnit, span obs.SpanID) error {
	if !u.tree {
		d.adm.Pace(d.env)
	}
	err := d.retry.Do(d.env, "lambda.Invoke", func() error {
		return d.dep.Lambda.Invoke(d.env, d.cfg.FunctionName, u.body,
			lambdasvc.InvokeOptions{WorkerID: u.worker, Pipelined: !u.tree, Span: span})
	})
	if err != nil {
		// Invoke fails before any container spawns: hand the tokens back.
		d.adm.Release(u.tokens)
	}
	return err
}

// reinvoke launches the next attempt of one worker — a failure relaunch or a
// speculation backup. Recovery traffic must not queue behind tokens held by
// workers parked on the very fragment being recovered, so it is admitted
// past the cap (counted in Overflow) instead of waiting; it is stamped per
// (worker, attempt), so it never goes through the tree.
func (d *query) reinvoke(r *stageRun, worker int) error {
	p := r.payloads[worker]
	p.Attempt = r.attempts[worker]
	body, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	d.adm.AcquireOverflow()
	return d.invoke(launchUnit{worker: worker, body: body, tokens: 1}, r.span)
}

// RunPlanStaged is RunSQLStaged for an engine plan.
func (d *Driver) RunPlanStaged(plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.sess.RunPlanStaged(d.env, plan, tables, cfg)
}

// plan is the planner, the one way from a logical plan to runStages: footer
// schemas and statistics of the S3 tables the plan scans, Optimize, Decompose
// (joins shuffle or broadcast per the footer row counts, the aggregate merges
// on the driver or behind a repartition per the footer bounds of its group
// keys), pruned file assignment, and the broadcast blobs the planner asked
// for. local holds the driver-resident tables: chunks in the driver's memory
// (§3.2's "small amounts of data read locally"), never opened, always broadcast.
func (d *query) plan(plan engine.Plan, tables TableFiles, local map[string]*columnar.Chunk, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	d.begin()

	// Planning reads the footers of the tables the plan scans — a registered
	// table the query does not touch costs it nothing and cannot fail it — in
	// sorted order, because the request sequence must not follow map
	// iteration. The files the session has not opened before are opened
	// through one request window; the rest cost no request.
	var names []string
	stats := stageplan.Stats{Rows: map[string]int64{}, Workers: map[string]int{}, Resident: map[string]bool{}}
	optCat := engine.Catalog{}
	engine.VisitScans(plan, func(s *engine.ScanPlan) {
		if chunk, ok := local[s.Table]; ok {
			optCat[s.Table] = engine.NewMemSource(chunk.Schema)
			stats.Rows[s.Table], stats.Resident[s.Table] = int64(chunk.NumRows()), true
		} else if !slices.Contains(names, s.Table) {
			names = append(names, s.Table)
		}
	})
	sort.Strings(names)
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
	// granularity.
	tablePreds := map[string][]lpq.Predicate{}
	engine.VisitScans(opt, func(s *engine.ScanPlan) {
		if len(s.Prune) > 0 {
			tablePreds[s.Table] = s.Prune
		}
	})
	scanFiles := TableFiles{}
	for _, name := range names {
		src, preds := srcs[name], tablePreds[name]
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
			// its scan reads only the footer and yields nothing.
			kept = src.Files[:1]
		}
		scanFiles[name], stats.Workers[name] = kept, d.scanFleet(len(kept))
	}
	// Asked by Decompose for the group keys of the plan's aggregate only: the
	// footers' value range for an S3 table, the chunk's for a resident one.
	stats.Bounds = func(table, column string) (lo, hi int64, ok bool) {
		if chunk, ok := local[table]; ok {
			return chunkBounds(chunk, column)
		}
		return srcs[table].Bounds(column)
	}

	sp, err := stageplan.Decompose(opt, stats, stageplan.Config{
		Partitions:        cfg.Partitions,
		BroadcastRowLimit: cfg.BroadcastRowLimit,
		MaxAutoPartitions: cfg.MaxAutoPartitions,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrInvalidPlan, err)
	}

	// The tables the planner kept as broadcast joins: the driver-resident
	// ones as they are, the genuinely small S3 ones loaded whole.
	blobs := map[string][]byte{}
	for _, name := range sp.Broadcast {
		chunk := local[name]
		if chunk == nil {
			// Through the source the planner opened: the footers are paid for.
			chunk, err = engine.Execute(&engine.ScanPlan{Table: name}, engine.Catalog{name: srcs[name]})
			if err != nil {
				return nil, nil, fmt.Errorf("driver: loading broadcast table %q: %w", name, err)
			}
		}
		if blobs[name], err = lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk); err != nil {
			return nil, nil, err
		}
	}
	return d.runStages(sp, scanFiles, blobs, cfg)
}

// scanFleet is the worker count of a scan stage over n files: F per worker.
func (d *query) scanFleet(n int) int {
	return (n + d.cfg.FilesPerWorker - 1) / d.cfg.FilesPerWorker
}

// chunkBounds is scan.Source.Bounds for a driver-resident table.
func chunkBounds(c *columnar.Chunk, col string) (lo, hi int64, ok bool) {
	i := c.Schema.Index(col)
	if i < 0 || c.Schema.Fields[i].Type != columnar.Int64 || c.NumRows() == 0 {
		return 0, 0, false
	}
	return slices.Min(c.Columns[i].Int64s), slices.Max(c.Columns[i].Int64s), true
}

// runStages is the executor — the one place a query's fleet is launched and
// its result queue is read. It runs any stage plan, from one stage posting
// to the driver to a multi-level shuffle DAG, in three steps: setup
// (openNamespace, newScheduler) builds every fleet's payloads; the event loop
// (schedule) does the I/O the scheduler type's transitions ask for — stages
// are invoked before their producers seal (consumer cold starts overlap
// upstream execution), workers report completion through the SQS result
// queue (seal), the driver records stage readiness in DynamoDB (the
// notify-driven barrier gating consumer collects), retryable failure seals
// and Config.Speculate's stragglers are re-invoked as attempt-versioned
// backups whose boundary publishes cannot race the originals' (the first
// sealed attempt per worker wins); the finish merges, sweeps and reports. It
// all runs on the query's private result queue and retry scope, so N of
// these interleave on one session.
//
// A plan pays only for the machinery it uses, by two rules that hold for
// every plan:
//
//  1. The boundary namespace — shard buckets, stages table, the durable
//     epoch fence, the result-queue purge and both boundary sweeps — exists
//     iff some stage has an Output. A plan without boundaries runs at epoch
//     0 and issues no DynamoDB or S3 LIST request at all.
//  2. A stage writes its DynamoDB ready marker iff some other stage run
//     depends on it; nobody waits on the result stage, so it writes none.
//
// scanFiles assigns each scanned table its files; blobs are the broadcast
// tables (lpq blobs by name) shipped inside the payloads that scan them.
func (d *query) runStages(sp *stageplan.Plan, scanFiles TableFiles, blobs map[string][]byte, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	resultStage := sp.ResultStage()
	if resultStage == nil {
		return nil, nil, fmt.Errorf("driver: stage plan has no result stage")
	}
	ns, epoch, sweep, err := d.openNamespace(sp, cfg)
	if err != nil {
		return nil, nil, err
	}
	swept := false
	defer func() {
		// Stale-drain collector: reclaim the boundary namespace — winner
		// files and loser attempts alike — even when the query fails.
		if !swept {
			sweep()
		}
	}()
	s, err := d.newScheduler(sp, scanFiles, blobs, cfg, ns, epoch)
	if err != nil {
		return nil, nil, err
	}
	if err := d.schedule(s, ns.SealTable); err != nil {
		return nil, nil, err
	}

	// Driver scope: merge the result stage's outputs in worker order (the
	// arrival order is racy; worker order makes the merge deterministic).
	var chunks []*columnar.Chunk
	for _, blob := range s.byID[resultStage.ID].chunks {
		if len(blob) == 0 {
			continue
		}
		c, err := decodeChunk(blob, 0)
		if err != nil {
			return nil, nil, err
		}
		chunks = append(chunks, c)
	}
	rs, err := resultStage.Plan.OutSchema()
	if err != nil {
		return nil, nil, err
	}
	dcat := engine.Catalog{engine.WorkerResultTable: engine.NewMemSource(rs, chunks...)}
	result, err := engine.Execute(sp.Driver, dcat)
	if err != nil {
		return nil, nil, err
	}

	// All stages sealed, so no winner is still publishing: drain the
	// boundary namespace now and let its requests count toward the query.
	if err := sweep(); err != nil {
		return nil, nil, err
	}
	swept = true
	return result, d.report(s, sp), nil
}

// openNamespace sets up rule 1's machinery when sp has a boundary: ns is the
// boundary namespace every task of the query shares — the prefix the payloads
// carry is the fenced e<epoch> sub-prefix — and sweep drains the query's
// prefix across all epochs, every epoch's debris. A plan without boundaries
// gets the zero namespace, epoch 0 and a sweep that does nothing.
func (d *query) openNamespace(sp *stageplan.Plan, cfg StageConfig) (ns boundarySpec, epoch int, sweep func() error, err error) {
	sweep = func() error { return nil }
	if !slices.ContainsFunc(sp.Stages, func(st *stageplan.Stage) bool { return st.Output != nil }) {
		return ns, 0, sweep, nil
	}
	buckets := d.s.InstallExchange()
	sealTable := stagesTableName(d.cfg.FunctionName)
	d.dep.Dynamo.CreateTable(sealTable)

	// Epoch fence: durably increment this query ID's epoch before
	// anything else. Every artifact of the run — worker payloads, seal
	// messages, ready markers, the exchange boundary prefix — carries
	// the epoch, and the scheduler discards artifacts of older epochs,
	// so an in-flight worker of an aborted identically-numbered run
	// cannot poison this one no matter when it wakes. The purge and
	// sweep below are then hygiene (reclaiming queue slots and at-rest
	// debris), not a correctness mechanism racing zombie workers.
	if epoch, err = d.acquireEpoch(sealTable, d.id); err != nil {
		return ns, 0, nil, fmt.Errorf("driver: acquiring epoch for %s: %w", d.id, err)
	}
	if err := d.purgeResults(); err != nil {
		return ns, 0, nil, err
	}
	driverClient := d.client()
	prefix := d.cfg.FunctionName + "/" + d.id + "/"
	sweep = func() error {
		if _, err := exchange.Sweep(driverClient, buckets, prefix); err != nil {
			return fmt.Errorf("driver: sweeping boundary %s: %w", prefix, err)
		}
		return nil
	}
	if err := sweep(); err != nil {
		return ns, 0, nil, err
	}
	return boundarySpec{
		Buckets:   buckets,
		Prefix:    prefix + "e" + strconv.Itoa(epoch),
		PollNs:    int64(cfg.Exchange.Poll),
		MaxWaitNs: int64(cfg.Exchange.MaxWait),
		SealTable: sealTable,
	}, epoch, sweep, nil
}

// newScheduler sizes every fleet of sp, resolves the boundaries' exchange
// variants, builds the payloads, and returns the scheduler over the
// resulting stage runs, nothing launched yet.
func (d *query) newScheduler(sp *stageplan.Plan, scanFiles TableFiles, blobs map[string][]byte, cfg StageConfig, ns boundarySpec, epoch int) (*scheduler, error) {
	// Worker counts: scan stages derive from their file count (F files per
	// worker); exchange-fed stages run one worker per partition.
	workers := map[int]int{}
	outputs := map[int]*stageplan.Output{}
	for _, st := range sp.Stages {
		if st.Output != nil {
			outputs[st.ID] = st.Output
		}
		if st.Table != "" {
			files := scanFiles[st.Table]
			if files == nil {
				return nil, fmt.Errorf("driver: stage %d scans unknown table %q", st.ID, st.Table)
			}
			workers[st.ID] = d.scanFleet(len(files))
			continue
		}
		parts := 0
		for _, in := range st.Inputs {
			if out := outputs[in.StageID]; out != nil {
				if parts != 0 && parts != out.Partitions {
					return nil, fmt.Errorf("driver: stage %d inputs disagree on partitions", st.ID)
				}
				parts = out.Partitions
			}
		}
		if parts == 0 {
			return nil, fmt.Errorf("driver: stage %d has no boundary inputs", st.ID)
		}
		workers[st.ID] = parts
	}

	// Resolve every boundary's exchange variant now that fleet sizes are
	// known: plan-pinned variants (Output.Variant.Levels > 0) stand, the
	// rest come from the analytic request model — multi-level only when the
	// request savings at this (S, P, B) pay for the regroup fleet, or when
	// cfg.ExchangeLevels forces it. A multi-level boundary gets its regroup
	// round as a stage of its own, right behind the producer, and the
	// boundary's consumers depend on that stage's seal as well.
	stages := make([]*stageplan.Stage, 0, len(sp.Stages))
	for _, st := range sp.Stages {
		stages = append(stages, st)
		if st.Output == nil {
			continue
		}
		if st.Output.Variant.Levels == 0 {
			st.Output.Variant = stageplan.ChooseVariant(
				workers[st.ID], st.Output.Partitions, len(ns.Buckets),
				cfg.Exchange.Variant, cfg.ExchangeLevels)
		}
		if st.Output.Variant.Levels < 2 {
			continue
		}
		rg := regroupStage(st)
		workers[rg.ID] = exchange.Groups(st.Output.Partitions)
		stages = append(stages, rg)
		for _, c := range sp.Stages {
			if slices.Contains(c.DependsOn, st.ID) {
				c.DependsOn = append(c.DependsOn, rg.ID)
			}
		}
	}

	// Every stage's payloads are computable up front (worker counts depend
	// only on file and partition counts), so pipelined launch can invoke
	// consumers before their producers seal.
	s := &scheduler{queryID: d.id, epoch: epoch, speculate: d.cfg.Speculate,
		maxStageWait: cfg.MaxStageWait, waves: d.cfg.testWaveLaunch, byID: map[int]*stageRun{}}
	for _, st := range stages {
		ps, err := d.stagePayloads(epoch, st, workers[st.ID], scanFiles[st.Table], s.byID, blobs, ns)
		if err != nil {
			return nil, err
		}
		r := s.add(st, ps)
		if tr := d.dep.Trace; tr.Enabled() {
			name := "stage-" + strconv.Itoa(st.ID)
			if producer, ok := regroupOf(st); ok {
				name = "regroup-" + strconv.Itoa(producer)
			}
			r.span = tr.StartSpan(obs.KindStage, name, d.span, d.env.Now())
		}
	}
	return s, nil
}

// launchReady runs one launch pass over every launchable stage, in launch
// order. A pass invokes a stage's pending units for as long as admission
// grants their tokens, without ever blocking — a driver parked on the pool
// could not consume the seal messages that token-holding consumers are
// waiting on. Whatever the pool denies stays pending; the event loop retries
// every pass as other containers settle.
func (d *query) launchReady(s *scheduler) error {
	for _, r := range s.runs {
		if !s.launchable(r) {
			continue
		}
		if r.pending == nil {
			var err error
			if r.pending, err = d.launchUnits(r.payloads); err != nil {
				return err
			}
		}
		from, tokens := d.env.Now(), 0
		for len(r.pending) > 0 && d.adm.TryAcquire(r.pending[0].tokens) {
			u := r.pending[0]
			if err := d.invoke(u, r.span); err != nil {
				return err
			}
			r.pending = r.pending[1:]
			tokens += u.tokens
		}
		if s.launched(r, tokens, from, d.env.Now()) {
			d.dep.Trace.SetStart(r.span, from)
		}
	}
	return nil
}

// schedule is the event loop, and every substrate call of it: launch what is
// launchable, consume seal messages as they arrive, write the ready marker
// the moment a stage's last worker sealed, launch whatever that unblocked,
// and re-invoke what the scheduler nominates. It returns once every stage
// sealed.
func (d *query) schedule(s *scheduler, sealTable string) error {
	tr := d.dep.Trace
	if err := d.launchReady(s); err != nil {
		return err
	}
	deadline := d.env.Now() + d.cfg.MaxWait
	for !s.done() {
		// Resume partial launches: containers of this or other queries
		// settling since the last pass may have freed tokens.
		if err := d.launchReady(s); err != nil {
			return err
		}
		msgs, err := d.receive()
		if err != nil {
			return fmt.Errorf("driver: collecting seals: %w", err)
		}
		for _, m := range msgs {
			var rm resultMsg
			if err := json.Unmarshal(m.Body, &rm); err != nil {
				return err
			}
			r, out, err := s.message(d.env.Now(), &rm)
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
				// Ready: record it in DynamoDB for the consumers' barrier
				// (the Put broadcasts the completion signal, waking workers
				// parked in waitSealed at this exact instant).
				if r.awaited {
					if err := d.retry.Do(d.env, "dynamo.Put", func() error {
						return d.dep.Dynamo.Put(d.env, sealTable, sealKey(s.queryID, s.epoch, r.st.ID), []byte("sealed"))
					}); err != nil {
						return err
					}
				}
				s.marked(r, d.env.Now())
				if tr.Enabled() {
					tr.SetTag(r.span, "workers", strconv.Itoa(len(r.payloads)))
					if r.speculated > 0 {
						tr.SetTag(r.span, "speculated", strconv.Itoa(r.speculated))
					}
					tr.EndSpan(r.span, r.sealedAt)
				}
				if err := d.launchReady(s); err != nil {
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
		// Straggler speculation: backup bursts pace like any other direct
		// launch (reinvoke) — the liveness cap can re-invoke a whole stage
		// fleet at once, which must not exceed the Invoke API rate.
		for _, b := range s.stragglers(d.env.Now()) {
			if err := d.reinvoke(b.run, b.worker); err != nil {
				return fmt.Errorf("driver: backup invocation of stage %d worker %d: %w", b.run.st.ID, b.worker, err)
			}
		}
		if d.env.Now() >= deadline {
			return fmt.Errorf("driver: %d seal messages missing after %v", s.missing(), d.cfg.MaxWait)
		}
		if len(msgs) == 0 {
			// Park on the result queue's completion topic: the loop wakes at
			// the instant the next seal lands instead of rounding the whole
			// query up to the next PollInterval tick, with the timed poll as
			// fallback — and stays parked through unrelated broadcasts
			// (boundary puts, ready markers).
			simenv.WaitNotifyKey(d.env, "sqs/"+d.cfg.ResultQueue, d.cfg.PollInterval)
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
	d.quiesce()
	endTime := d.env.Now()
	rep := s.rep // a copy: the Report must not keep the scheduler's payloads alive
	rep.QueryID, rep.Epoch, rep.Stages = s.queryID, s.epoch, len(sp.Stages)
	rep.Duration = endTime - d.start
	sort.Slice(rep.WorkerProcessing, func(i, j int) bool { return rep.WorkerProcessing[i] < rep.WorkerProcessing[j] })
	for _, r := range s.runs {
		ss := StageStat{
			StageID:    r.st.ID,
			Workers:    len(r.payloads),
			Launched:   r.launchedAt - d.start,
			Sealed:     r.sealedAt - d.start,
			Speculated: r.speculated,
			Span:       r.span,
		}
		if producer, ok := regroupOf(r.st); ok {
			ss.StageID, ss.Regroup = producer, true
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

// receive reads up to one batch of the query's result queue under the retry
// policy.
func (d *query) receive() ([]sqs.Message, error) {
	var msgs []sqs.Message
	err := d.retry.Do(d.env, "sqs.Receive", func() error {
		var rerr error
		msgs, rerr = d.dep.SQS.Receive(d.env, d.cfg.ResultQueue, 10)
		return rerr
	})
	return msgs, err
}

// purgeResults drains every leftover message from the result queue. Called
// before a plan with boundaries launches (no workers of this query are in
// flight yet, so everything received is stale). With the epoch fence this is queue
// hygiene, not a correctness mechanism: even a message posted after the
// purge by a zombie worker of an aborted identically-numbered run is
// discarded by its older epoch.
func (d *query) purgeResults() error {
	for {
		msgs, err := d.receive()
		if err != nil || len(msgs) == 0 {
			return err
		}
	}
}

// stagePayloads builds the n invocation payloads of one stage (attempt 0),
// every one stamped with the query's epoch fence token. A stage that
// touches no boundary — no inputs to collect, no output to publish — ships
// no boundary spec: its payload is the bare fragment plus its files.
// byID holds the runs of the stage's producers (stages arrive in
// topological order); ns is the query's boundary namespace.
func (d *query) stagePayloads(epoch int, st *stageplan.Stage, n int, files []scan.FileRef, byID map[int]*stageRun, blobs map[string][]byte, ns boundarySpec) ([]workerPayload, error) {
	var planJSON []byte
	if st.Plan != nil {
		var err error
		if planJSON, err = engine.MarshalPlan(st.Plan); err != nil {
			return nil, err
		}
	}
	var spec *boundarySpec
	if len(st.Inputs) > 0 || st.Output != nil {
		ns.Output = st.Output
		for _, in := range st.Inputs {
			up := byID[in.StageID]
			if up == nil || up.st.Output == nil {
				return nil, fmt.Errorf("driver: stage %d collects from stage %d, which publishes no boundary", st.ID, in.StageID)
			}
			ns.Inputs = append(ns.Inputs, stageInputSpec{Input: in, Senders: len(up.payloads), Variant: up.st.Output.Variant})
		}
		spec = &ns
	}

	// Only ship the broadcast blobs the fragment scans (join build sides
	// included).
	var stageBlobs map[string][]byte
	engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
		if blob, ok := blobs[s.Table]; ok {
			if stageBlobs == nil {
				stageBlobs = map[string][]byte{}
			}
			stageBlobs[s.Table] = blob
		}
	})

	payloads := make([]workerPayload, n)
	per := (len(files) + n - 1) / n
	for w := 0; w < n; w++ {
		p := workerPayload{
			QueryID:     d.id,
			WorkerID:    w,
			NumWorkers:  n,
			Plan:        planJSON,
			ResultQueue: d.cfg.ResultQueue,
			StageID:     st.ID,
			Boundary:    spec,
			Epoch:       epoch,
			Broadcast:   stageBlobs,
		}
		if st.Table != "" {
			hi := min((w+1)*per, len(files))
			p.Table = st.Table
			p.Files = files[min(w*per, hi):hi]
		}
		payloads[w] = p
	}
	return payloads, nil
}

// executeFragment is the worker side of a task: wait out the upstream ready
// markers, collect this worker's partition of every input boundary, execute
// the fragment on the pipeline-graph scheduler, and either publish the
// partitioned output into this stage's attempt namespace or hand the chunk
// back for the SQS result post. A payload without a boundary spec touches no
// boundary: the zero spec has nothing to collect and nothing to publish. A
// payload without a plan is a regroup task: the intermediate round of its
// one input's multi-level boundary is all it does.
func (d *Session) executeFragment(ctx *lambdasvc.Ctx, ws resilience.Policy, p *workerPayload) (*columnar.Chunk, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	copts := []s3.ClientOption{s3.WithPolicy(ws)}
	if d.dep.Shaped {
		copts = append(copts, s3.WithShaper(d.dep.Net, ctx.MemoryMiB))
	}
	client := s3.NewClient(d.dep.S3, ctx.Env, copts...)

	x := p.Boundary
	if x == nil {
		x = &boundarySpec{}
	}
	opts := exchange.Options{Buckets: x.Buckets, Prefix: x.Prefix, Poll: time.Duration(x.PollNs)}
	// One wait deadline for the whole task: a k-input stage gets MaxWait
	// across ALL its barriers — the ready-marker waits and the exchange
	// commit waits alike — not MaxWait per input (which would let a fragment
	// wait k×MaxWait before reporting failure). Only waits are bounded; the
	// data reads themselves are not cut short.
	deadline := ctx.Env.Now() + time.Duration(x.MaxWaitNs)
	// ready waits out stage's ready marker, then points opts at a round of
	// variant v with what is left of the deadline to wait for its commits.
	// The driver marks a stage sealed in DynamoDB once every worker of it
	// reported through SQS. Under pipelined launch this worker was invoked
	// before its producers sealed, so the wait here is where cold start and
	// upstream execution overlap.
	ready := func(stage int, v exchange.Variant) error {
		if err := d.waitSealed(ctx, ws, p, stage, deadline); err != nil {
			return err
		}
		opts.Variant = v
		opts.MaxWait = max(deadline-ctx.Env.Now(), 0)
		return nil
	}

	if len(p.Plan) == 0 {
		// Regroup attempts version their round-2 publishes exactly like
		// sender attempts — first committed attempt wins at the receivers.
		in := x.Inputs[0]
		if err := ready(in.StageID, in.Variant); err != nil {
			return nil, err
		}
		return nil, exchange.RegroupStage(client, opts, exchange.Boundary{
			Stage:      in.StageID,
			Attempt:    p.Attempt,
			Senders:    in.Senders,
			Partitions: x.Output.Partitions,
		}, p.WorkerID, x.Output.Keys)
	}

	plan, cat, err := d.fragmentCatalog(ctx, client, p)
	if err != nil {
		return nil, err
	}
	budget := engineMemoryBudget(ctx.MemoryMiB)
	var collected int64
	for _, in := range x.Inputs {
		// A multi-level boundary is read once its regroup fleet sealed — the
		// round-2 objects this worker reads exist only then.
		sealed := in.StageID
		if in.Variant.Levels >= 2 {
			sealed = regroupStageID(in.StageID)
		}
		if err := ready(sealed, in.Variant); err != nil {
			return nil, err
		}
		chunk, err := exchange.CollectStage(client, opts, exchange.Boundary{
			Stage:      in.StageID,
			Senders:    in.Senders,
			Partitions: p.NumWorkers,
		}, p.WorkerID)
		if err != nil {
			return nil, fmt.Errorf("collecting stage %d partition %d: %w", in.StageID, p.WorkerID, err)
		}
		// §3.3: report the working set exceeding the engine budget instead
		// of dying silently. A join stage holds BOTH sides' partitions at
		// once (plus build-side structures and output), so the guard sums
		// over the inputs collected so far.
		collected += chunk.ByteSize()
		if need := 3 * collected; need > budget {
			return nil, fmt.Errorf("%w: partition working set %d MiB exceeds engine budget %d MiB",
				ErrWorkerOOM, need>>20, budget>>20)
		}
		cat[in.Table] = engine.NewMemSource(chunk.Schema, chunk)
	}

	// Every fragment — joins included — runs on the pipeline-graph
	// scheduler, one pipeline per CPU (Pipelines 0); a DES process must not
	// spawn goroutines, and parallelism 1 executes the whole graph inline.
	var par engine.ParallelConfig
	if d.dep.Deterministic {
		par.Pipelines = 1
	}
	out, err := engine.ExecuteParallel(plan, cat, par)
	if err != nil {
		return nil, err
	}
	// Exchange-volume tags: output rows of the fragment and bytes collected
	// from upstream boundaries, read off the invocation span for the
	// per-stage profile (rows/bytes exchanged).
	tr := d.dep.Trace
	if tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "rows.out", strconv.FormatInt(int64(out.NumRows()), 10))
		if n := client.BytesRead(); n > 0 {
			tr.SetTag(ctx.Span, "bytes.in", strconv.FormatInt(n, 10))
		}
	}
	if x.Output == nil {
		return out, nil
	}
	wrote := client.BytesWritten()
	opts.Variant = x.Output.Variant
	err = exchange.PublishStage(client, opts, exchange.Boundary{
		Stage:      p.StageID,
		Attempt:    p.Attempt,
		Senders:    p.NumWorkers,
		Partitions: x.Output.Partitions,
	}, p.WorkerID, out, x.Output.Keys)
	if err != nil {
		return nil, fmt.Errorf("publishing stage %d output: %w", p.StageID, err)
	}
	if tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "bytes.out", strconv.FormatInt(client.BytesWritten()-wrote, 10))
	}
	// The seal travels through the result queue: an empty chunk.
	return nil, nil
}

// waitSealed waits for the DynamoDB ready marker of a producing stage, up
// to the fragment-wide deadline. The marker key carries the query epoch, so
// a marker written by an aborted identically-numbered run can never satisfy
// this run's barrier. Between checks the worker parks on the completion
// signal dynamo.Put broadcasts — it wakes at the instant the marker lands
// instead of at the next poll boundary — with the timed poll as fallback.
func (d *Session) waitSealed(ctx *lambdasvc.Ctx, ws resilience.Policy, p *workerPayload, stageID int, deadline time.Duration) error {
	table, key := p.Boundary.SealTable, sealKey(p.QueryID, p.Epoch, stageID)
	for {
		err := ws.Do(ctx.Env, "dynamo.Get", func() error {
			_, gerr := d.dep.Dynamo.Get(ctx.Env, table, key)
			return gerr
		})
		if err == nil {
			return nil
		}
		if !errors.Is(err, dynamo.ErrNoSuchItem) {
			return err
		}
		if ctx.Env.Now() >= deadline {
			return fmt.Errorf("stage %d never sealed: %w", stageID, err)
		}
		// Park on this marker's exact completion topic: only the dynamo.Put
		// of this (query, epoch, stage) ready marker wakes the worker early.
		simenv.WaitNotifyKey(ctx.Env, "dynamo/"+table+"/"+key, time.Duration(p.Boundary.PollNs))
	}
}
