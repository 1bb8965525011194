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
	"maps"
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
	"lambada/internal/exchange"
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

	// testWorkerDelay, when set by tests, stalls the given invocation as
	// its fragment starts, in its first phase — the straggler-injection
	// seam. Stage is 0 for a one-stage plan; attempt 0 is the original
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
		Region:          netmodel.RegionEU,
		Timeout:         5 * time.Minute,
		ResultQueue:     "lambada-results",
		PollInterval:    25 * time.Millisecond,
	}
}

// workerPayload is the invocation parameter blob (§3.3): the worker's ID,
// its plan fragment and its inputs — the files of the tables it scans and
// the boundaries it trades through.
type workerPayload struct {
	QueryID    string `json:"queryId"`
	WorkerID   int    `json:"workerId"`
	NumWorkers int    `json:"numWorkers"`
	// Plan is the fragment to execute; a task without one is the regroup
	// round of a multi-level boundary.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Tables holds the files of every base table the fragment scans, each
	// pinned (scan.Source.Pin): its size and footer bytes ride along, so the
	// worker opens none. The stage's own table holds this worker's share of
	// its files, a broadcast join's build side all of its files.
	Tables      TableFiles `json:"tables,omitempty"`
	ResultQueue string     `json:"resultQueue"`
	Children    []share    `json:"children,omitempty"` // the shares of the workers it invokes (§4.2)
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
}

// share is what sets one worker of a stage apart from the stage's task: its
// ID and its slice of the stage's own table.
type share struct {
	WorkerID int        `json:"workerId"`
	Tables   TableFiles `json:"tables,omitempty"`
}

// forWorker is the one definition of a worker's payload: the task with the
// share's ID, the share's tables in place of the task's, and no children.
func (p *workerPayload) forWorker(s share) workerPayload {
	q := *p
	q.WorkerID, q.Children = s.WorkerID, nil
	if len(s.Tables) > 0 {
		q.Tables = make(TableFiles, len(p.Tables)+len(s.Tables))
		maps.Copy(q.Tables, p.Tables)
		maps.Copy(q.Tables, s.Tables)
	}
	return q
}

// maxFanout bounds the counts of a payload that size a worker's slices: far
// above any fleet the scheduler builds, far below what a hostile one allocates.
const maxFanout = 1 << 16

// check refuses a payload no scheduler builds — the blob comes off the wire —
// before one of its counts sizes a slice or indexes one, or a child is invoked.
func (p *workerPayload) check() error {
	x := p.Boundary
	if x == nil {
		x = &boundarySpec{}
	}
	sized := func(n int) bool { return n >= 1 && n <= maxFanout }
	ok := sized(p.NumWorkers) && p.WorkerID >= 0 && p.WorkerID < p.NumWorkers && p.Attempt >= 0 &&
		(x.Output == nil || sized(x.Output.Partitions)) && len(p.Children) < p.NumWorkers
	for _, in := range x.Inputs {
		ok = ok && sized(in.Senders)
	}
	for _, c := range p.Children {
		ok = ok && c.WorkerID >= 0 && c.WorkerID < p.NumWorkers && c.WorkerID != p.WorkerID
	}
	if !ok {
		return fmt.Errorf("task of worker %d/%d, attempt %d, %d children: a count outside [1, %d] or a child outside the fleet",
			p.WorkerID, p.NumWorkers, p.Attempt, len(p.Children), maxFanout)
	}
	if len(p.Plan) == 0 && (len(x.Inputs) != 1 || x.Output == nil) {
		return errors.New("task carries neither a plan nor a boundary to regroup")
	}
	// A child's payload is this task with the child's ID and tables
	// (forWorker), so it passes where they do.
	err := checkFiles(p.Tables)
	for i := 0; err == nil && i < len(p.Children); i++ {
		err = checkFiles(p.Children[i].Tables)
	}
	return err
}

// checkFiles refuses a table without files or a file without its footer.
func checkFiles(tables TableFiles) error {
	for _, name := range sortedStringKeys(tables) {
		if len(tables[name]) == 0 {
			return fmt.Errorf("table %q: no files", name)
		}
		for _, f := range tables[name] {
			if len(f.Footer) == 0 {
				return fmt.Errorf("%w: %s/%s carries none", errShippedFooter, f.Bucket, f.Key)
			}
		}
	}
	return nil
}

// errShippedFooter fails a task whose scan file comes without its footer, or
// with one that does not decode against its size: a worker never opens a
// file itself, so there is nothing to fall back on.
var errShippedFooter = errors.New("driver: scan file footer")

// output is where the task's attempt publishes: the options and boundary of
// exchange.PublishSealed — or of RegroupSealed, for a task without a plan
// (the second round of its one input). Call it on a checked payload.
func (p *workerPayload) output() (exchange.Options, exchange.Boundary) {
	x := p.Boundary
	opts := exchange.Options{Variant: x.Output.Variant, Buckets: x.Buckets, Prefix: x.Prefix}
	b := exchange.Boundary{Stage: p.StageID, Attempt: p.Attempt, Senders: p.NumWorkers, Partitions: x.Output.Partitions}
	if len(p.Plan) == 0 {
		in := x.Inputs[0]
		opts.Variant, b.Stage, b.Senders = in.Variant, in.StageID, in.Senders
	}
	return opts, b
}

// written names every object the task's attempt may have published
// (exchange.Written): none without an output.
func (p *workerPayload) written() ([]exchange.Object, error) {
	if err := p.check(); err != nil || p.Boundary == nil || p.Boundary.Output == nil {
		return nil, err
	}
	opts, b := p.output()
	return exchange.Written(nil, opts, b, p.WorkerID, len(p.Plan) == 0)
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
	Retryable bool   `json:"retryable,omitempty"`
	Retries   int64  `json:"retries,omitempty"` // substrate retries spent by this invocation
	Chunk     []byte `json:"chunk,omitempty"`   // lpq blob
	// Offsets is what the worker committed to its stage's boundary besides
	// its objects: the slots+1 offsets of a write-combined publish, none for
	// a basic one. The driver seals it into the stage's manifest.
	Offsets      []int64 `json:"offsets,omitempty"`
	ProcessingNs int64   `json:"processingNs"` // plan execution time
	Cold         bool    `json:"cold"`
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

	// A task no scheduler builds fails here, before it invokes anyone.
	if err := p.check(); err != nil {
		return d.postResult(ctx.Env, ws, p, err, nil, nil, 0, ctx.Cold)
	}

	// First-generation workers launch their children before their own
	// fragment (§4.2), in the spawn phase, under which the children's spans
	// hang. A child's body is what a direct launch of it sends.
	if len(p.Children) > 0 {
		spawn := d.dep.Trace.Phase(ctx.Env, "spawn", ctx.Env.Now())
		pacing := invoke.WorkerPacing(d.cfg.Region)
		for _, c := range p.Children {
			body, err := json.Marshal(p.forWorker(c))
			if err == nil {
				err = ws.Do(ctx.Env, "lambda.Invoke", func() error {
					return d.dep.Lambda.Invoke(ctx.Env, d.cfg.FunctionName, body, lambdasvc.InvokeOptions{WorkerID: c.WorkerID, Pipelined: true, Span: spawn})
				})
			}
			if err != nil {
				err = fmt.Errorf("invoking child %d: %w", c.WorkerID, err)
				d.postResult(ctx.Env, ws, p, err, nil, nil, 0, ctx.Cold)
				return err
			}
			ctx.Env.Sleep(pacing.Gap())
		}
	}

	start := ctx.Env.Now()
	chunk, offsets, err := d.executeFragment(ctx, ws, &p)
	processing := ctx.Env.Now() - start
	err = d.postResult(ctx.Env, ws, p, outOfMemory(err), chunk, offsets, processing, ctx.Cold)
	if errors.Is(err, sqs.ErrNoSuchQueue) {
		// The query is over, its keyed delete maybe before this publish: delete
		// it by the driver's names (best effort; the post's error is returned).
		if objs, werr := p.written(); werr == nil {
			_ = exchange.Delete(s3.NewClient(d.dep.S3, ctx.Env, s3.WithPolicy(ws)), objs)
		}
	}
	return err
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
		if err := checkWorkingSet(c.ByteSize(), m.budget); err != nil {
			return err
		}
		return yield(c)
	}
}

// checkWorkingSet is the engine's working-set rule: n bytes of input need 3×
// that within the budget, or the worker reports ErrWorkerOOM. The scan
// pipeline holds the decoded chunk plus the compressed download buffers, and
// a join its inputs plus build-side structures and output; 3× is the factor
// of the paper's double-buffered scan, which also holds the next group. What
// the scan's request window holds beyond the group being decoded — at most
// its payload break-even, ≈ 2.9 MiB of compressed bytes of the groups after
// it, and as much for each other table while the task's first window waits
// to be scanned — is that next group's share. A scanned chunk is checked
// here, after its row group's rows × widths were held to the budget from the
// footer before any of its bytes were fetched (scan.Pinned). The inputs a
// task holds whole — its build sides, the partitions it collected, or a
// regroup's group — share one residentBudget: a build side is charged from
// its footers (scan.Source.Hold), the rest are held to it by the decoder
// (lpq.ReadFiles) before it allocates.
func checkWorkingSet(n, budget int64) error {
	if need := 3 * n; need > budget {
		return fmt.Errorf("%w: chunk working set %d MiB exceeds engine budget %d MiB", ErrWorkerOOM, need>>20, budget>>20)
	}
	return nil
}

func residentBudget(memoryMiB int) int64 { return engineMemoryBudget(memoryMiB) / 3 }

// outOfMemory reports lpq bytes the decoder refused at its bound as
// ErrWorkerOOM; any other error passes through.
func outOfMemory(err error) error {
	if errors.Is(err, lpq.ErrOverBound) {
		return fmt.Errorf("%w: %w", ErrWorkerOOM, err)
	}
	return err
}

// The embedded source's Recycle must stay reachable through the guard: a
// wrapper that hid it would silently stop the scan's chunks coming back.
var (
	_ engine.FilterableSource = memGuardSource{}
	_ engine.Recycler         = memGuardSource{}
)

// engineMemoryBudget returns the execution-engine limit: the function's
// memory minus a fixed headroom for the handler and runtime.
func engineMemoryBudget(memoryMiB int) int64 {
	const headroomMiB = 192
	return max(int64(memoryMiB-headroomMiB)<<20, 1<<20)
}

// fragmentCatalog decodes the task's plan fragment and binds every table it
// scans from S3 behind the memory guard, through one scan.Pinned call: every
// shipped footer is decoded here, before any request, and every row group
// held to the engine budget before its bytes are fetched. Each source is told
// the one scan the fragment runs over it (Expect), so the first scan of any
// of them fetches the first request window of all of them at once. A hash
// join whose build input is a bare scan of such a table holds it whole:
// twice its rows × projected widths, from its footers, is the first draw on
// the task's resident budget, refused past it before any byte is fetched. It
// returns what is left of that budget.
func (d *Session) fragmentCatalog(ctx *lambdasvc.Ctx, client *s3.Client, p *workerPayload) (engine.Plan, engine.Catalog, int64, error) {
	plan, err := engine.UnmarshalPlan(p.Plan)
	if err != nil {
		return nil, nil, 0, err
	}
	names := sortedStringKeys(p.Tables) // the order the first request window reads them in
	files := make([][]scan.FileRef, len(names))
	for i, name := range names {
		files[i] = p.Tables[name]
	}
	budget := engineMemoryBudget(ctx.MemoryMiB)
	srcs, err := scan.Pinned(client, budget, files...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %w", errShippedFooter, err)
	}
	// One walk, as engine.VisitScans: every scan by table, and apart the
	// scans a join builds its hash table from, a bare scan as its Right.
	scans, builds := map[string][]*engine.ScanPlan{}, map[string][]*engine.ScanPlan{}
	var walk func(engine.Plan)
	walk = func(p engine.Plan) {
		for n := p; n != nil; n = n.Child() {
			switch n := n.(type) {
			case *engine.ScanPlan:
				scans[n.Table] = append(scans[n.Table], n)
			case *engine.JoinPlan:
				if s, ok := n.Right.(*engine.ScanPlan); ok {
					builds[s.Table] = append(builds[s.Table], s)
				}
				walk(n.Right)
			}
		}
	}
	walk(plan)
	cat, rest := engine.Catalog{}, residentBudget(ctx.MemoryMiB)
	for i, name := range names {
		src := srcs[i]
		if sc := scans[name]; len(sc) == 1 {
			src.Expect(sc[0].Projection, sc[0].Prune, sc[0].Filter)
		}
		// The build pipeline holds the side twice at its peak: the chunks
		// the scan yielded, and the one it concatenates them into.
		for _, sc := range builds[name] {
			n, err := src.Hold(sc.Projection, sc.Prune, rest/2)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("build side %q: %w", name, err)
			}
			rest -= 2 * n
		}
		cat[name] = memGuardSource{Source: src, budget: budget}
	}
	return plan, cat, rest, nil
}

// postResult is a task's last phase, post: its result, seal or failure seal
// to the query's result queue.
func (d *Session) postResult(env simenv.Env, ws resilience.Policy, p workerPayload, execErr error, chunk *columnar.Chunk, offsets []int64, processing time.Duration, cold bool) error {
	d.dep.Trace.Phase(env, "post", env.Now())
	msg := resultMsg{QueryID: p.QueryID, WorkerID: p.WorkerID, Stage: p.StageID, Attempt: p.Attempt, Epoch: p.Epoch,
		Offsets: offsets, ProcessingNs: processing.Nanoseconds(), Cold: cold}
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
