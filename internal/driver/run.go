package driver

import (
	"bytes"
	"fmt"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
)

// Report summarizes one query execution.
type Report struct {
	QueryID string
	// CacheHit marks a result served from the session's result cache
	// — no workers ran, and every other field except Duration is zero.
	CacheHit bool
	// Epoch is the query's durable fence token: the DynamoDB epoch item's
	// value after the driver's atomic increment at query start. 1 on a
	// clean deployment; higher when an aborted identically-numbered run
	// came before. 0 for plans without a stage boundary, which take no
	// fence.
	Epoch   int
	Workers int
	// Stages is the stage count of the executed plan (1 when nothing
	// shuffles: no join with two large sides, an aggregate merged on the
	// driver).
	Stages   int
	Duration time.Duration
	// Invocation is the driver-side time spent launching workers.
	Invocation time.Duration
	// WorkerProcessing are the per-worker plan-fragment execution times,
	// sorted ascending — the distribution of Figure 11.
	WorkerProcessing []time.Duration
	ColdWorkers      int
	// Speculated counts backup invocations issued for stragglers (summed
	// over stages in staged executions).
	Speculated int
	// FailureSeals counts retryable worker failure seals the scheduler
	// absorbed by re-invoking the fragment (0 when every worker succeeded
	// first try).
	FailureSeals int
	// DriverRetries and WorkerRetries count substrate-call retries the
	// resilience layer spent on this query, on the driver side and summed
	// over worker invocations respectively.
	DriverRetries int64
	WorkerRetries int64
	// InjectedFaults is the deployment injector's cumulative per-"op/kind"
	// fault count (nil outside chaos deployments). Cumulative across
	// queries: the injector's schedule spans the deployment.
	InjectedFaults map[string]int
	// StageStats records per-stage launch/seal timing and speculation
	// counters, one entry per stage run (regroup fleets included).
	StageStats []StageStat
	// Cost is what the meter moved between the query's begin and its end,
	// in exact integer units (S3 requests and read bytes, Lambda MiB·ns,
	// ...); TotalCost is its price. The meter is deployment-wide: when other
	// queries of the session overlap this one's window their spend shows up
	// here too. The exact per-query figure is the traced Profile().Cost,
	// which sums only the spans under this query.
	Cost      obs.Cost
	TotalCost float64
	// Wakeups counts completion-signal wakeups delivered during the query —
	// the keyed-broadcast layer's efficiency metric (0 when the environment
	// does not expose a wakeup counter).
	Wakeups uint64
	// Trace and Span expose the query's span tree when the deployment runs
	// with EnableTracing: Span is the root query span, Trace holds the whole
	// recording (shared across queries of the deployment). Nil/0 when
	// tracing is off. Plan, kept with them, is the stage plan the query ran
	// as: stageplan.Explain renders it, the planner's choices and their
	// reasons included.
	Trace *obs.Tracer
	Span  obs.SpanID
	Plan  *stageplan.Plan
}

// StageStat is one stage's slice of an execution.
type StageStat struct {
	StageID int
	Workers int
	// Launched and Sealed are offsets from the query start: under pipelined
	// launch every stage's Launched is near zero, and Sealed shows how the
	// DAG actually overlapped.
	Launched time.Duration
	Sealed   time.Duration
	// Speculated counts backup attempts invoked for this stage's
	// stragglers.
	Speculated int
	// Span is the stage's span (0 when tracing is off) — the anchor for
	// per-stage cost attribution in Report.Profile.
	Span obs.SpanID
	// Variant is the stage's output-boundary exchange algorithm as resolved
	// by the driver ("1l", "2l-wc", ...); empty for the result stage, which
	// posts to the queue instead of publishing a boundary.
	Variant string
	// Regroup marks the synthetic regroup fleet of a multi-level boundary;
	// StageID is then the PRODUCING stage whose boundary it regroups.
	Regroup bool
}

// begin opens the query's measurement window: the meter snapshot and start
// instant every Report figure is taken against, and — on traced deployments
// — the root query span. Binding the span to the driver environment routes
// every driver-side billed request (schema reads, the epoch fence, sweeps,
// invokes, result polling) into op spans beneath it; close releases the
// binding, closing any span an error path left open.
func (d *query) begin() {
	d.costBefore, d.wakeupsBefore = d.dep.Meter.Cost(), d.wakeupCount()
	d.start = d.env.Now()
	if tr := d.dep.Trace; tr.Enabled() {
		d.span = tr.StartSpan(obs.KindQuery, d.id, 0, d.start)
		tr.Bind(d.env, d.span)
	}
}

// wakeupCount reads the environment's completion-wakeup counter when it has
// one (DES kernel processes and the Immediate environment both do).
func (d *query) wakeupCount() uint64 {
	if c, ok := d.env.(interface{ CompletionWakeups() uint64 }); ok {
		return c.CompletionWakeups()
	}
	return 0
}

// quiesce, on traced runs, waits until no worker invocation is still
// executing before the cost window closes. Straggler losers — speculation
// backups whose original won, zombie attempts — bill their Lambda duration
// when their handler returns; waiting for them makes the per-span cost
// attribution sum exactly to the Report's meter deltas, at the price of the
// traced Duration including the straggler tail. Untraced runs report the
// instant the result is complete.
func (d *query) quiesce() {
	if !d.dep.Trace.Enabled() {
		return
	}
	for d.dep.Lambda.Running() > 0 {
		simenv.WaitNotifyKey(d.env, "", d.cfg.PollInterval)
	}
}

// fillCostDelta records what the query cost — the meter movement since
// begin — and the driver-side resilience counters.
func (d *query) fillCostDelta(rep *Report) {
	rep.Cost = d.dep.Meter.Cost().Sub(d.costBefore)
	rep.TotalCost = float64(pricing.Price(rep.Cost))
	rep.Wakeups = d.wakeupCount() - d.wakeupsBefore
	rep.DriverRetries = d.retry.Stats.Retries()
	if d.dep.Faults != nil {
		rep.InjectedFaults = d.dep.Faults.Injected()
	}
}

// decodeChunk reads an lpq blob that decodes to at most budget bytes. A few
// bytes of lpq can stand for any number of rows (a run is two varints), so a
// worker holds a blob off the wire to its engine budget by the rows the
// footer claims; 0 is no limit, for the blobs the driver wrote or asked for.
func decodeChunk(blob []byte, budget int64) (*columnar.Chunk, error) {
	r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	if rows := r.Meta().TotalRows; budget > 0 && rows > budget/int64(8*max(r.Schema().Len(), 1)) {
		return nil, fmt.Errorf("%w: a table of %d rows exceeds engine budget %d MiB", ErrWorkerOOM, rows, budget>>20)
	}
	return r.ReadAll()
}

// RunSQL parses and runs a SQL query against the lpq files of one table.
func (d *Driver) RunSQL(sql string, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.sess.RunSQL(d.env, sql, table, files)
}

// RunSQLBroadcast runs a SQL query whose INNER JOINs reference small
// driver-resident tables: every table but `table` must appear in broadcast,
// and is shipped inside the worker payloads (§3.2's "reading small amounts of
// data locally that should be broadcasted into the serverless workers").
func (d *Driver) RunSQLBroadcast(sql string, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	return d.sess.RunSQLBroadcast(d.env, sql, table, files, broadcast)
}

// RunPlan plans and executes a logical plan on the serverless fleet: the
// scan/filter/partial-aggregate scope runs in the workers, and where the
// footers bound the groups the final merge scope runs on the driver (§3.2).
func (d *Driver) RunPlan(plan engine.Plan, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.sess.RunPlan(d.env, plan, table, files)
}

// RunPlanBroadcast is RunPlan with driver-resident tables, as RunSQLBroadcast.
func (d *Driver) RunPlanBroadcast(plan engine.Plan, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	return d.sess.RunPlanBroadcast(d.env, plan, table, files, broadcast)
}
