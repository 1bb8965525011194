// Package driver implements the Lambada system core (§3): the driver that
// runs on the data scientist's machine, compiles queries into distributed
// plans, invokes serverless workers (directly or through the two-level
// invocation tree of §4.2), and collects their results through the SQS
// result queue. The workers are another program (internal/worker): they
// execute plan fragments against S3 through the cost-aware scan operator and
// report back via shared serverless storage — no always-on infrastructure
// anywhere.
package driver

import (
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/sqs"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// Deployment bundles the serverless services of Figure 3.
type Deployment struct {
	S3     *s3.Service
	Lambda *lambdasvc.Service
	SQS    *sqs.Service
	Dynamo *dynamo.Service
	Meter  *pricing.CostMeter

	// Shaped enables per-worker bandwidth shaping of S3 transfers.
	Shaped bool
	// Faults is the fault injector shared by every service of a chaos
	// deployment (NewChaos) — held here for reporting injected-fault counts.
	// Nil on fault-free deployments.
	Faults *faults.Injector

	// Trace is the deployment-wide tracer (nil = tracing off). Install it
	// with EnableTracing before any query traffic: the meter attributes
	// every charge to the span bound to the calling environment, the driver
	// opens query/stage spans, S3 clients op spans, and workers get
	// invocation spans.
	Trace *obs.Tracer
}

// EnableTracing installs tr on the deployment — the meter for billed cost,
// S3 and Lambda for op and invocation spans — so billed requests, retries
// and invocations are recorded as a span tree. Call it once, before Install
// and before any traffic; nil disables tracing again.
func (dep *Deployment) EnableTracing(tr *obs.Tracer) {
	dep.Trace = tr
	dep.Meter.SetTracer(tr)
	dep.S3.SetTracer(tr)
	dep.Lambda.SetTracer(tr)
}

// NewLocal returns a functional-layer deployment: real goroutine workers,
// zero latencies, no rate limits — correctness testing and examples.
func NewLocal() *Deployment {
	meter := pricing.NewCostMeter()
	return &Deployment{
		S3:     s3.New(s3.Config{Meter: meter}),
		Lambda: lambdasvc.New(lambdasvc.Config{Meter: meter}, &lambdasvc.GoRuntime{}),
		SQS:    sqs.New(sqs.Config{Meter: meter}),
		Dynamo: dynamo.New(dynamo.Config{Meter: meter}),
		Meter:  meter,
	}
}

// NewSimulated returns a DES deployment on kernel k with the calibrated AWS
// latency, bandwidth, throttling and pricing models — the performance layer.
func NewSimulated(k *simclock.Kernel, seed int64) *Deployment {
	return NewChaos(k, seed, faults.Plan{})
}

// NewChaos returns NewSimulated's deployment with every service consulting
// the given fault plan: S3 transient 500s/timeouts/SlowDown storms,
// SQS duplicate and delayed delivery, DynamoDB throttling, Lambda crashes
// and cold-start spikes, every one scheduled deterministically by the plan's
// seed. One injector is shared by all services — operation streams are
// independent per operation name, so the schedules compose without
// interference. A plan with no rules yields a nil injector, which injects
// nothing and counts nothing.
func NewChaos(k *simclock.Kernel, seed int64, plan faults.Plan) *Deployment {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(plan)
	s3cfg := s3.DefaultAWSConfig(meter, seed)
	s3cfg.Faults = inj
	lcfg := lambdasvc.DefaultAWSConfig(meter, seed+1)
	lcfg.Faults = inj
	qcfg := sqs.DefaultAWSConfig(meter, seed+2)
	qcfg.Faults = inj
	dcfg := dynamo.DefaultAWSConfig(meter, seed+3)
	dcfg.Faults = inj
	return &Deployment{
		S3:     s3.New(s3cfg),
		Lambda: lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k}),
		SQS:    sqs.New(qcfg),
		Dynamo: dynamo.New(dcfg),
		Meter:  meter,
		Shaped: true,
		Faults: inj,
	}
}

// Config tunes a Lambada installation.
type Config struct {
	// FunctionName is the worker Lambda function name.
	FunctionName string
	// WorkerMemoryMiB is M of §5.2 (default 1792: exactly one vCPU).
	WorkerMemoryMiB int
	// FilesPerWorker is F of §5.2; a scan fleet has ceil(len(files)/F)
	// workers.
	FilesPerWorker int
	// Region selects the Table 1 invocation profile.
	Region netmodel.Region
	// Timeout is the worker function timeout.
	Timeout time.Duration
	// ResultQueue names the SQS result queue.
	ResultQueue string
	// PollInterval is the driver's result poll interval.
	PollInterval time.Duration
	// Speculate enables driver-side straggler mitigation: once a quorum of
	// a stage's workers has reported, any worker still missing after a
	// multiple of the median response time is re-invoked ("backup
	// requests"), as is every missing worker of a stage that made no
	// progress for StageConfig.MaxStageWait — both clocks counted from the
	// worker's own Invoke. The first result per worker wins; duplicates are
	// discarded. This is the driver-side counterpart of the
	// aggressive-timeouts-and-retries theme of §5.5 (footnote 17): tail
	// latencies propagate, so the driver cuts the tail. Each stage arms
	// independently over its own fleet, and a backup is launched as a new
	// attempt whose boundary names cannot race the original's.
	Speculate bool
	// RetryBudget caps substrate retries per scope — the driver side of one
	// query, or one worker invocation (≤ 0: defaultRetryBudget). A worker that
	// exhausts its budget posts a typed retryable failure seal so the
	// scheduler can re-invoke the fragment.
	RetryBudget int
	// MaxInFlight, when positive, caps the deployment-wide number of
	// concurrently running worker containers across every query of the
	// session: queries acquire invocation tokens from one shared admission
	// controller (invoke.Admission) before launching, and each settling
	// container releases one. The shared pacer splits the region's Invoke
	// API rate across concurrent queries. 0 paces each query on its own
	// with no concurrency cap.
	MaxInFlight int
	// ResultCacheEntries, when positive, enables the session's result
	// cache: staged query results are memoized by (plan fingerprint, table
	// files) and invalidated explicitly (InvalidateTable) or implicitly by
	// UploadTable. 0 disables caching.
	ResultCacheEntries int

	// testWorkerDelay, when set by tests, is the installed worker's Stall
	// (worker.Function): the straggler-injection seam.
	testWorkerDelay func(stage, workerID, attempt int) time.Duration
	// testWaveLaunch, when set by tests, holds every stage back until its
	// producers sealed instead of invoking it as soon as they are launched —
	// barrier reads then happen in a known order, and the pipelined ≡ waves
	// identity stays checkable.
	testWaveLaunch bool
}

// DefaultConfig mirrors the paper's default setup (M=1792, F=1).
func DefaultConfig() Config {
	return Config{
		FunctionName:    "lambada-worker",
		WorkerMemoryMiB: 1792,
		FilesPerWorker:  1,
		Region:          netmodel.RegionEU,
		Timeout:         5 * time.Minute,
		ResultQueue:     "lambada-results",
		PollInterval:    25 * time.Millisecond,
	}
}
