package driver

import (
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/obs"
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
	// Stages counts the executed plan's fragments — its stages bar the
	// regroup ones (1 when nothing shuffles: no join with two large sides,
	// an aggregate merged on the driver).
	Stages int
	// Duration is the query's latency. Untraced, it ends at the merge, where
	// the caller has its rows (on a DES process the reclaim of the exchange's
	// objects runs behind it); traced, it also waits out stragglers and the
	// reclaim (query.quiesce).
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
	// Launched, FirstWinner, LastWinner and Sealed are offsets from the
	// query start: Launched is the instant of the stage's first Invoke,
	// FirstWinner the instant its first winner sent its seal message — a
	// consumer fleet launches only after each of its producers' — LastWinner
	// the instant its last winner sent the seal message that completed it,
	// and Sealed the instant the driver consumed that seal. Sealed shows how
	// the DAG actually overlapped; Sealed − LastWinner is the seal lag, how
	// long the stage's consumers waited on the driver rather than on the
	// stage.
	Launched    time.Duration
	FirstWinner time.Duration
	LastWinner  time.Duration
	Sealed      time.Duration
	// Speculated counts backup attempts invoked for this stage's
	// stragglers.
	Speculated int
	// Span is the stage's span (0 when tracing is off) — the anchor for
	// per-stage cost attribution in Report.Profile.
	Span obs.SpanID
	// Variant is the stage's output-boundary exchange algorithm as the
	// planner resolved it ("1l", "2l-wc", ...); empty for the result stage,
	// which posts to the queue instead of publishing a boundary.
	Variant string
	// Regroup marks the regroup stage of a multi-level boundary; StageID is
	// then the PRODUCING stage whose boundary it regroups.
	Regroup bool
}

// begin opens the query's measurement window: the meter snapshot and start
// instant every Report figure is taken against, and — on traced deployments
// — the root query span. Binding the span to the driver environment routes
// every driver-side billed request (schema reads, the epoch fence, cleanup,
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

// quiesce, on traced runs, waits until the query's reclaim pass has ended
// and, with stragglers, until no worker invocation is still executing, before
// the cost window closes. Straggler losers — speculation backups whose
// original won, zombie attempts — bill their Lambda duration when their
// handler returns; waiting for them makes the per-span cost attribution sum
// exactly to the Report's meter deltas, and waiting for the pass keeps its
// cleanup phase inside the query span, at the price of the traced Duration
// including both tails. Untraced runs report the instant the result is
// complete.
func (d *query) quiesce(stragglers bool) {
	if !d.dep.Trace.Enabled() {
		return
	}
	for d.reclaiming || stragglers && d.dep.Lambda.Running() > 0 {
		simenv.Arm(d.env, "").Wait(d.cfg.PollInterval)
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
