// Package driver implements the Lambada system core (§3): the driver that
// runs on the data scientist's machine, compiles queries into distributed
// plans, invokes serverless workers (directly or through the two-level
// invocation tree of §4.2), and collects their results through the SQS
// result queue. Workers execute plan fragments against S3 through the
// cost-aware scan operator and report back via shared serverless storage —
// no always-on infrastructure anywhere.
package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/scan"
	"lambada/internal/simclock"
)

// Deployment bundles the serverless services of Figure 3.
type Deployment struct {
	S3     *s3.Service
	Lambda *lambdasvc.Service
	SQS    *sqs.Service
	Dynamo *dynamo.Service
	Meter  *pricing.CostMeter
	Net    netmodel.LambdaNet

	// Deterministic is true for DES deployments and means "no host threads",
	// nothing else: worker-side code must not spawn goroutines, so the scan's
	// double buffer and file pool and the engine's pipeline fan-out are off.
	// Requests in flight are not threads: their timing is modeled by the S3
	// client's request window (latencies) and its shaper (bandwidth), and
	// runs the same on both clocks.
	Deterministic bool
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
		Net:    netmodel.DefaultLambdaNet(),
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
		S3:            s3.New(s3cfg),
		Lambda:        lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k}),
		SQS:           sqs.New(qcfg),
		Dynamo:        dynamo.New(dcfg),
		Meter:         meter,
		Net:           netmodel.DefaultLambdaNet(),
		Deterministic: true,
		Shaped:        true,
		Faults:        inj,
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
	// TreeInvoke enables the two-level invocation tree (§4.2).
	TreeInvoke bool
	// Region selects the Table 1 invocation profile.
	Region netmodel.Region
	// Scan configures the S3 scan operator.
	Scan scan.Config
	// Timeout is the worker function timeout.
	Timeout time.Duration
	// ResultQueue names the SQS result queue.
	ResultQueue string
	// PollInterval is the driver's result poll interval.
	PollInterval time.Duration
	// MaxWait bounds result collection.
	MaxWait time.Duration
	// Speculate configures driver-side straggler mitigation.
	Speculate SpeculateConfig
	// RetryBudget caps substrate retries per scope — the driver side of one
	// query, or one worker invocation. 0 means the default of 256; negative
	// means unlimited. A worker that exhausts its budget posts a typed
	// retryable failure seal so the scheduler can re-invoke the fragment.
	RetryBudget int
	// EpochTTL bounds the lifetime of epoch fence items in the staging
	// table; the driver lazily sweeps expired items when acquiring epochs.
	// Must comfortably exceed the function timeout so a live query's fence
	// is never collected. 0 means 24 hours of virtual time.
	EpochTTL time.Duration
	// EpochGCInterval is the number of epoch acquisitions between lazy
	// sweeps of expired fence items (0 = every 64th).
	EpochGCInterval int
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

	// testWorkerDelay, when set by tests, stalls the given invocation
	// before it executes its fragment — the straggler-injection seam.
	// Stage is 0 for a one-stage plan; attempt 0 is the original
	// invocation, higher attempts are speculation backups.
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
		TreeInvoke:      true,
		Region:          netmodel.RegionEU,
		Scan:            scan.DefaultConfig(),
		Timeout:         5 * time.Minute,
		ResultQueue:     "lambada-results",
		PollInterval:    25 * time.Millisecond,
		MaxWait:         10 * time.Minute,
	}
}

// Driver is the single-user façade over a Session: one resident session
// plus one bound environment, serving one query at a time. All the
// machinery lives in Session — Driver only forwards; multi-query users hold
// the Session directly.
type Driver struct {
	sess *Session
	env  simenv.Env

	// dep and cfg mirror the session's deployment and normalized config so
	// existing tests that reach into driver internals keep compiling.
	dep *Deployment
	cfg Config
}

// New returns a driver using env as its local clock.
func New(dep *Deployment, env simenv.Env, cfg Config) *Driver {
	s := NewSession(dep, cfg)
	return &Driver{sess: s, env: env, dep: dep, cfg: s.cfg}
}

// Config returns the driver's configuration.
func (d *Driver) Config() Config { return d.cfg }

// Deployment returns the bound deployment.
func (d *Driver) Deployment() *Deployment { return d.dep }

// Session returns the resident session the driver fronts.
func (d *Driver) Session() *Session { return d.sess }

// Install registers the worker function and creates the result queue —
// the installation step of the usage model (Figure 2), done once.
func (d *Driver) Install() error { return d.sess.Install() }

// workerPayload is the invocation parameter blob (§3.3): the worker's ID,
// its plan fragment and its inputs — the files it scans, the broadcast
// tables it joins against and the boundaries it trades through.
type workerPayload struct {
	QueryID    string `json:"queryId"`
	WorkerID   int    `json:"workerId"`
	NumWorkers int    `json:"numWorkers"`
	// Plan is the fragment to execute; a task without one is the regroup
	// round of a multi-level boundary.
	Plan        json.RawMessage   `json:"plan,omitempty"`
	Table       string            `json:"table"`
	Files       []scan.FileRef    `json:"files"`
	ResultQueue string            `json:"resultQueue"`
	Children    []json.RawMessage `json:"children,omitempty"`
	// StageID names the task's stage in the stage plan (internal/stageplan).
	StageID int `json:"stageId,omitempty"`
	// Boundary, present when the stage touches an exchange boundary, tells
	// the worker what to collect before executing the fragment and where to
	// publish its partitioned output after — without one the fragment's
	// output goes to the result queue.
	Boundary *boundarySpec `json:"boundary,omitempty"`
	// Attempt versions this invocation: 0 is the original, higher numbers
	// are speculation backups for the same (stage, worker). Stage boundary
	// publishes are namespaced by it so backups never race originals.
	Attempt int `json:"attempt,omitempty"`
	// Epoch is the query's fence token (staged runs): the driver durably
	// increments it in DynamoDB at query start, every artifact the worker
	// produces — seal message, boundary prefix — carries it, and artifacts
	// of an older epoch are discarded. A zombie worker of an aborted
	// identically-numbered run is structurally unable to satisfy this run's
	// barriers, no matter when it wakes. 0 for plans without a boundary.
	Epoch int `json:"epoch,omitempty"`
	// Broadcast carries small driver-side tables (lpq blobs by table name)
	// referenced by join plans.
	Broadcast map[string][]byte `json:"broadcast,omitempty"`
}

// maxFanout bounds the counts of a payload that size a worker's slices: far
// above any fleet the scheduler builds, far below what a hostile one allocates.
const maxFanout = 1 << 16

// check refuses a payload no scheduler builds — the blob comes off the wire —
// before one of its counts sizes a slice or indexes one.
func (p *workerPayload) check() error {
	x := p.Boundary
	if x == nil {
		x = &boundarySpec{}
	}
	sized := func(n int) bool { return n >= 1 && n <= maxFanout }
	ok := sized(p.NumWorkers) && p.WorkerID >= 0 && p.WorkerID < p.NumWorkers && p.Attempt >= 0 &&
		(x.Output == nil || sized(x.Output.Partitions))
	for _, in := range x.Inputs {
		ok = ok && sized(in.Senders)
	}
	if !ok {
		return fmt.Errorf("task of worker %d/%d, attempt %d: a count outside [1, %d]", p.WorkerID, p.NumWorkers, p.Attempt, maxFanout)
	}
	if len(p.Plan) == 0 && (len(x.Inputs) != 1 || x.Output == nil) {
		return errors.New("task carries neither a plan nor a boundary to regroup")
	}
	return nil
}

// resultMsg is the worker → driver completion message.
type resultMsg struct {
	QueryID  string `json:"queryId"`
	WorkerID int    `json:"workerId"`
	Stage    int    `json:"stage,omitempty"`   // stage fragment's stage ID
	Attempt  int    `json:"attempt,omitempty"` // invocation attempt number
	Epoch    int    `json:"epoch,omitempty"`   // query epoch fence token
	Err      string `json:"err,omitempty"`
	// Retryable marks a failure as transient — the worker died of exhausted
	// retries or an injected crash-class error, not of a plan or data error
	// — so the scheduler may re-invoke the fragment instead of failing the
	// query.
	Retryable    bool   `json:"retryable,omitempty"`
	Retries      int64  `json:"retries,omitempty"` // substrate retries spent by this invocation
	Chunk        []byte `json:"chunk,omitempty"`   // lpq blob
	ProcessingNs int64  `json:"processingNs"`      // plan execution time
	Cold         bool   `json:"cold"`
}

// workerHandler is the event handler running inside every serverless
// worker: invoke children (tree), execute the plan fragment, post to SQS.
// It hangs off the Session, not a query: workers of every concurrent query
// share one installed function, and everything query-specific travels in
// the payload (queryID, epoch, result queue).
func (d *Session) workerHandler(ctx *lambdasvc.Ctx, payload []byte) error {
	var p workerPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return err
	}
	// Per-invocation retry scope: every substrate call the worker makes
	// draws on this one budget, so a fault storm cannot keep a single
	// invocation retrying forever — it degrades into a retryable failure
	// seal the scheduler can act on.
	ws := d.retryPolicy(int64(p.StageID)<<32 + int64(p.WorkerID)<<8 + int64(p.Attempt) + 1)

	// Identify this invocation's span: queryID/stage/attempt tags turn the
	// flat invocation list into the query → stage → attempt taxonomy.
	if tr := d.dep.Trace; tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "query", p.QueryID)
		if p.StageID != 0 || p.Boundary != nil {
			tr.SetTag(ctx.Span, "stage", strconv.Itoa(p.StageID))
		}
		if p.Attempt > 0 {
			tr.SetTag(ctx.Span, "attempt", strconv.Itoa(p.Attempt))
		}
	}

	// First-generation workers launch their children before their own
	// fragment (§4.2). Only the child's ID is read here; its payload — the
	// broadcast blobs included — is decoded once, by the child.
	if len(p.Children) > 0 {
		pacing := invoke.WorkerPacing(d.cfg.Region)
		for _, body := range p.Children {
			var child struct {
				WorkerID int `json:"workerId"`
			}
			err := json.Unmarshal(body, &child)
			if err == nil {
				err = ws.Do(ctx.Env, "lambda.Invoke", func() error {
					return d.dep.Lambda.Invoke(ctx.Env, d.cfg.FunctionName, body, lambdasvc.InvokeOptions{WorkerID: child.WorkerID, Pipelined: true, Span: ctx.Span})
				})
			}
			if err != nil {
				err = fmt.Errorf("invoking child %d: %w", child.WorkerID, err)
				d.postResult(ctx.Env, ws, p, err, nil, 0, ctx.Cold)
				return err
			}
			ctx.Env.Sleep(pacing.Gap())
		}
	}

	if d.cfg.testWorkerDelay != nil {
		ctx.Env.Sleep(d.cfg.testWorkerDelay(p.StageID, p.WorkerID, p.Attempt))
	}
	start := ctx.Env.Now()
	chunk, err := d.executeFragment(ctx, ws, &p)
	processing := ctx.Env.Now() - start
	return d.postResult(ctx.Env, ws, p, err, chunk, processing, ctx.Cold)
}

// ErrWorkerOOM is reported when a worker's working set exceeds its memory.
var ErrWorkerOOM = errors.New("worker out of memory")

// memGuardSource wraps a worker's scan source and fails with an
// out-of-memory error when a materialized chunk exceeds the execution-engine
// budget. §3.3: the handler "starts the execution engine ... with a memory
// limit slightly lower than that of the serverless function such that it can
// report out-of-memory situations ... rather than dying silently".
type memGuardSource struct {
	*scan.Source
	budget int64
}

func (m memGuardSource) Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return m.Source.Scan(proj, preds, m.guard(yield))
}

func (m memGuardSource) ScanFiltered(proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	return m.Source.ScanFiltered(proj, preds, filter, m.guard(yield))
}

// guard wraps yield with the working-set budget check.
func (m memGuardSource) guard(yield func(*columnar.Chunk) error) func(*columnar.Chunk) error {
	return func(c *columnar.Chunk) error {
		// The scan pipeline holds the decoded chunk plus the compressed
		// download buffers and the double-buffered next group; budget 3×.
		if need := 3 * c.ByteSize(); need > m.budget {
			return fmt.Errorf("%w: chunk working set %d MiB exceeds engine budget %d MiB",
				ErrWorkerOOM, need>>20, m.budget>>20)
		}
		return yield(c)
	}
}

var _ engine.FilterableSource = memGuardSource{}

// engineMemoryBudget returns the execution-engine limit: the function's
// memory minus a fixed headroom for the handler and runtime.
func engineMemoryBudget(memoryMiB int) int64 {
	const headroomMiB = 192
	b := int64(memoryMiB-headroomMiB) << 20
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// fragmentCatalog decodes the task's plan fragment and binds what it scans:
// the worker's files behind the memory guard, and the broadcast tables.
func (d *Session) fragmentCatalog(ctx *lambdasvc.Ctx, client *s3.Client, p *workerPayload) (engine.Plan, engine.Catalog, error) {
	plan, err := engine.UnmarshalPlan(p.Plan)
	if err != nil {
		return nil, nil, err
	}
	cat := engine.Catalog{}
	if len(p.Files) > 0 {
		cat[p.Table] = memGuardSource{Source: scan.New(client, d.cfg.Scan, p.Files...), budget: engineMemoryBudget(ctx.MemoryMiB)}
	}
	for name, blob := range p.Broadcast {
		c, err := decodeChunk(blob, engineMemoryBudget(ctx.MemoryMiB))
		if err != nil {
			return nil, nil, fmt.Errorf("decoding broadcast table %q: %w", name, err)
		}
		cat[name] = engine.NewMemSource(c.Schema, c)
	}
	return plan, cat, nil
}

func (d *Session) postResult(env simenv.Env, ws resilience.Policy, p workerPayload, execErr error, chunk *columnar.Chunk, processing time.Duration, cold bool) error {
	msg := resultMsg{QueryID: p.QueryID, WorkerID: p.WorkerID, Stage: p.StageID, Attempt: p.Attempt, Epoch: p.Epoch, ProcessingNs: processing.Nanoseconds(), Cold: cold}
	if execErr != nil {
		msg.Err = execErr.Error()
		// A retryable failure is a typed failure seal: the scheduler may
		// re-invoke the fragment through the attempt machinery instead of
		// failing the query.
		msg.Retryable = resilience.Retryable(execErr)
	} else if chunk != nil {
		blob, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk)
		if err != nil {
			msg.Err = err.Error()
		} else {
			msg.Chunk = blob
		}
	}
	msg.Retries = ws.Stats.Retries()
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	// The completion message is the worker's last word — losing it to a
	// transient SQS error would strand the whole query, so it retries too.
	// It goes to the payload's queue, not a session-wide one: each query
	// collects on its own result queue, so concurrent queries never read
	// (and destroy) each other's completions.
	return ws.Do(env, "sqs.Send", func() error {
		return d.dep.SQS.Send(env, p.ResultQueue, body)
	})
}
