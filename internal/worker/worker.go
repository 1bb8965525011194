// Package worker is the program every serverless worker runs (§3.3): its
// Payload is all it gets and its Result all it gives back — the wire contract
// the driver builds tasks and decodes seals by. It imports nothing of the
// driver; besides its payload it reads its Function, as a real Lambda would.
package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strconv"
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
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
)

// TableFiles maps each base table of a query to its lpq files on S3.
type TableFiles map[string][]scan.FileRef

// Names returns the tables in sorted order, the order a task reads them in.
func (t TableFiles) Names() []string {
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Payload is the invocation parameter blob (§3.3): the worker's ID, its plan
// fragment and its inputs — the files of the tables it scans and the
// boundaries it trades through.
type Payload struct {
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
	Children    []Share    `json:"children,omitempty"` // the shares of the workers it invokes (§4.2)
	// StageID names the task's stage in the stage plan (internal/stageplan).
	StageID int `json:"stageId,omitempty"`
	// Boundary, present when the stage touches an exchange boundary, tells
	// the worker what to collect before executing the fragment and where to
	// publish its partitioned output after — without one the fragment's
	// output goes to the result queue.
	Boundary *Boundary `json:"boundary,omitempty"`
	// Attempt versions this invocation: 0 is the original, higher numbers
	// are speculation backups for the same (stage, worker). Stage boundary
	// publishes are namespaced by it so backups never race originals.
	Attempt int `json:"attempt,omitempty"`
	// Epoch is the query's fence token (staged runs): every artifact the
	// worker produces — seal message, boundary prefix — carries it, so a
	// zombie of an aborted identically-numbered run can never satisfy this
	// run's barriers. 0 for plans without a boundary.
	Epoch int `json:"epoch,omitempty"`
}

// Share is what sets one worker of a stage apart from the stage's task: its
// ID and its slice of the stage's own table.
type Share struct {
	WorkerID int        `json:"workerId"`
	Tables   TableFiles `json:"tables,omitempty"`
}

// ForWorker is the one definition of a worker's payload: the task with the
// share's ID, the share's tables in place of the task's, and no children.
func (p *Payload) ForWorker(s Share) Payload {
	q := *p
	q.WorkerID, q.Children = s.WorkerID, nil
	if len(s.Tables) > 0 {
		q.Tables = make(TableFiles, len(p.Tables)+len(s.Tables))
		maps.Copy(q.Tables, p.Tables)
		maps.Copy(q.Tables, s.Tables)
	}
	return q
}

// Boundary is the one boundary spec a task's payload carries: which
// boundaries the task collects from and publishes into, and the namespace
// they live in. The query ID, epoch and stage ID that scope object names and
// ready markers are the payload's own. Each input is the planner's, complete:
// its producer's sender count and variant included.
type Boundary struct {
	Inputs []stageplan.Input `json:"inputs,omitempty"`
	Output *stageplan.Output `json:"output,omitempty"`

	Buckets   []string `json:"buckets"`
	Prefix    string   `json:"prefix"`
	PollNs    int64    `json:"pollNs"`
	MaxWaitNs int64    `json:"maxWaitNs"`
	// SealTable is the DynamoDB table holding the ready markers, one per
	// consumer stage (SealKey).
	SealTable string `json:"sealTable"`
}

// maxFanout bounds the counts of a payload that size a worker's slices: far
// above any fleet the scheduler builds, far below what a hostile one allocates.
const maxFanout = 1 << 16

// Check refuses a payload no scheduler builds — the blob comes off the wire —
// before one of its counts sizes a slice or indexes one, or a child is invoked.
func (p *Payload) Check() error {
	x := p.Boundary
	if x == nil {
		x = &Boundary{}
	}
	sized := func(n int) bool { return n >= 1 && n <= maxFanout }
	ok := sized(p.NumWorkers) && p.WorkerID >= 0 && p.WorkerID < p.NumWorkers && p.Attempt >= 0 &&
		(x.Output == nil || sized(x.Output.Partitions))
	for _, in := range x.Inputs {
		ok = ok && sized(in.Senders)
	}
	// A child is another worker of the fleet, named once: each entry is a billed Invoke.
	kids := map[int]bool{p.WorkerID: true}
	for _, c := range p.Children {
		ok = ok && c.WorkerID >= 0 && c.WorkerID < p.NumWorkers && !kids[c.WorkerID]
		kids[c.WorkerID] = true
	}
	if !ok {
		return fmt.Errorf("task of worker %d/%d, attempt %d, %d children: a count outside [1, %d], or a child outside the fleet or named twice",
			p.WorkerID, p.NumWorkers, p.Attempt, len(p.Children), maxFanout)
	}
	if len(p.Plan) == 0 && (len(x.Inputs) != 1 || x.Output == nil) {
		return errors.New("task carries neither a plan nor a boundary to regroup")
	}
	// A child's payload is this task with the child's ID and tables
	// (ForWorker), so it passes where they do.
	err := checkFiles(p.Tables)
	for i := 0; err == nil && i < len(p.Children); i++ {
		err = checkFiles(p.Children[i].Tables)
	}
	return err
}

// checkFiles refuses a table without files or a file without its footer.
func checkFiles(tables TableFiles) error {
	for _, name := range tables.Names() {
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
var errShippedFooter = errors.New("worker: scan file footer")

// output is where the task's attempt publishes: the options and boundary of
// exchange.PublishSealed — or of RegroupSealed, for a task without a plan
// (the second round of its one input). Call it on a checked payload.
func (p *Payload) output() (exchange.Options, exchange.Boundary) {
	x := p.Boundary
	opts := exchange.Options{Variant: x.Output.Variant, Buckets: x.Buckets, Prefix: x.Prefix}
	b := exchange.Boundary{Stage: p.StageID, Attempt: p.Attempt, Senders: p.NumWorkers, Partitions: x.Output.Partitions}
	if len(p.Plan) == 0 {
		in := x.Inputs[0]
		opts.Variant, b.Stage, b.Senders = in.Variant, in.StageID, in.Senders
	}
	return opts, b
}

// Written names every object the task's attempt may have published
// (exchange.Written): none without an output.
func (p *Payload) Written() ([]exchange.Object, error) {
	if err := p.Check(); err != nil || p.Boundary == nil || p.Boundary.Output == nil {
		return nil, err
	}
	opts, b := p.output()
	return exchange.Written(nil, opts, b, p.WorkerID, len(p.Plan) == 0)
}

// Result is the worker → driver completion message.
type Result struct {
	QueryID  string `json:"queryId"`
	WorkerID int    `json:"workerId"`
	Stage    int    `json:"stage,omitempty"`   // stage fragment's stage ID
	Attempt  int    `json:"attempt,omitempty"` // invocation attempt number
	Epoch    int    `json:"epoch,omitempty"`   // query epoch fence token
	Err      string `json:"err,omitempty"`
	// Retryable marks a failure as transient — exhausted retries or a
	// crash-class error, not a plan or data error — so the scheduler may
	// re-invoke the fragment instead of failing the query.
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

// SealKey names the ready marker of a consumer stage — one with inputs — by
// that stage's own ID: the one item its workers wait on, holding every
// input's manifest. The epoch segment fences markers of an aborted
// identically-numbered run out of this run's barrier.
func SealKey(queryID string, epoch, stageID int) string {
	return fmt.Sprintf("%s/e%d/s%d", queryID, epoch, stageID)
}

// Function is what a worker reads besides its payload, as a real Lambda has
// it for configuration: the function's name and region, which a tree parent
// invokes its children by, each invocation's retry budget, and the
// deployment's services, S3 shaping and tracer (nil: tracing off).
type Function struct {
	Name        string
	Region      netmodel.Region
	RetryBudget int
	S3          *s3.Service
	Dynamo      *dynamo.Service
	SQS         *sqs.Service
	Lambda      *lambdasvc.Service
	Shaped      bool
	Trace       *obs.Tracer
	// Stall, nil outside the driver's tests, stalls an invocation by (stage,
	// worker, attempt) as its fragment starts: the straggler seam.
	Stall func(stage, workerID, attempt int) time.Duration
}

// Handle is the event handler running inside every serverless worker:
// invoke children (tree), execute the plan fragment, post to SQS. Workers of
// every concurrent query share one installed function, and everything
// query-specific travels in the payload (queryID, epoch, result queue).
func (f *Function) Handle(ctx *lambdasvc.Ctx, payload []byte) error {
	var p Payload
	if err := json.Unmarshal(payload, &p); err != nil {
		return err
	}
	// Per-invocation retry scope: every substrate call the worker makes
	// draws on this one budget, so a fault storm cannot keep a single
	// invocation retrying forever — it degrades into a retryable failure
	// seal the scheduler can act on.
	ws := resilience.Policy{Budget: resilience.NewBudget(f.RetryBudget), Stats: &resilience.Stats{},
		Seed: int64(p.StageID)<<32 + int64(p.WorkerID)<<8 + int64(p.Attempt) + 1, Trace: f.Trace}

	// Identify this invocation's span: queryID/stage/attempt tags turn the
	// flat invocation list into the query → stage → attempt taxonomy.
	if tr := f.Trace; tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "query", p.QueryID)
		if p.StageID != 0 || p.Boundary != nil {
			tr.SetTag(ctx.Span, "stage", strconv.Itoa(p.StageID))
		}
		if p.Attempt > 0 {
			tr.SetTag(ctx.Span, "attempt", strconv.Itoa(p.Attempt))
		}
	}

	// A task no scheduler builds fails here, before it invokes anyone.
	if err := p.Check(); err != nil {
		return f.postResult(ctx.Env, ws, p, err, nil, nil, 0, ctx.Cold)
	}

	// First-generation workers launch their children before their own
	// fragment (§4.2), in the spawn phase, under which the children's spans
	// hang. A child's body is what a direct launch of it sends.
	if len(p.Children) > 0 {
		spawn := f.Trace.Phase(ctx.Env, "spawn", ctx.Env.Now())
		pacing := invoke.WorkerPacing(f.Region)
		for _, c := range p.Children {
			body, err := json.Marshal(p.ForWorker(c))
			if err == nil {
				err = ws.Do(ctx.Env, "lambda.Invoke", func() error {
					return f.Lambda.Invoke(ctx.Env, f.Name, body, lambdasvc.InvokeOptions{WorkerID: c.WorkerID, Pipelined: true, Span: spawn})
				})
			}
			if err != nil {
				err = fmt.Errorf("invoking child %d: %w", c.WorkerID, err)
				f.postResult(ctx.Env, ws, p, err, nil, nil, 0, ctx.Cold)
				return err
			}
			ctx.Env.Sleep(pacing.Gap())
		}
	}

	start := ctx.Env.Now()
	chunk, offsets, err := f.executeFragment(ctx, ws, &p)
	processing := ctx.Env.Now() - start
	err = f.postResult(ctx.Env, ws, p, engine.OutOfMemory(err), chunk, offsets, processing, ctx.Cold)
	if errors.Is(err, sqs.ErrNoSuchQueue) {
		// The query is over, its keyed delete maybe before this publish: delete
		// it by the driver's names (best effort; the post's error is returned).
		if objs, werr := p.Written(); werr == nil {
			_ = exchange.Delete(s3.NewClient(f.S3, ctx.Env, s3.WithPolicy(ws)), objs)
		}
	}
	return err
}

// fragmentCatalog decodes the task's plan fragment and binds every table it
// scans from S3 through one scan.Pinned call: every shipped footer is decoded
// here, before any request, and every row group held to the resident budget
// from its footer before its bytes are fetched. Each source is told the one
// scan the fragment runs over it (Expect), so the first scan of any of them
// fetches the first request window of all of them at once. A hash join whose
// build input is a bare scan of such a table holds it whole: twice its rows ×
// projected widths, from its footers, is the first draw on the task's
// resident budget, refused past it before any byte is fetched. It returns
// what is left of that budget.
func fragmentCatalog(ctx *lambdasvc.Ctx, client *s3.Client, p *Payload) (engine.Plan, engine.Catalog, int64, error) {
	plan, err := engine.UnmarshalPlan(p.Plan)
	if err != nil {
		return nil, nil, 0, err
	}
	names := p.Tables.Names() // the order the first request window reads them in
	files := make([][]scan.FileRef, len(names))
	for i, name := range names {
		files[i] = p.Tables[name]
	}
	srcs, err := scan.Pinned(client, engine.ResidentBudget(ctx.MemoryMiB), files...)
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
	cat, rest := engine.Catalog{}, engine.ResidentBudget(ctx.MemoryMiB)
	for i, name := range names {
		src := srcs[i]
		if sc := scans[name]; len(sc) == 1 {
			src.Expect(sc[0].Projection, sc[0].Prune, sc[0].Filter)
		}
		// A build side is charged twice: a filtered one holds the chunks the
		// scan yielded and their concatenation at its peak; an unfiltered one
		// (scan.Source.Rows) its counted output and one row group's chunk.
		for _, sc := range builds[name] {
			n, err := src.Hold(sc.Projection, sc.Prune, rest/2)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("build side %q: %w", name, err)
			}
			rest -= 2 * n
		}
		cat[name] = src
	}
	return plan, cat, rest, nil
}

// executeFragment is the worker side of a task: wait out its stage's ready
// marker, collect this worker's partition of every input boundary in one
// request window (exchange.CollectSealed), execute the fragment, and either
// publish the partitioned output into this stage's attempt namespace —
// returning the offsets its seal commits — or hand the chunk back for the
// result post. A payload without a boundary spec touches no boundary; one
// without a plan is a regroup task, the second round of its one input's
// multi-level boundary. Each step opens its phase of the invocation as it
// begins (wait-sealed, collect, regroup, execute — the scan's reads
// included — and publish).
func (f *Function) executeFragment(ctx *lambdasvc.Ctx, ws resilience.Policy, p *Payload) (*columnar.Chunk, []int64, error) {
	copts := []s3.ClientOption{s3.WithPolicy(ws)}
	if f.Shaped {
		copts = append(copts, s3.WithShaper(netmodel.DefaultLambdaNet(), ctx.MemoryMiB))
	}
	env, tr := ctx.Env, f.Trace
	client := s3.NewClient(f.S3, env, copts...)

	x := p.Boundary
	if x == nil {
		x = &Boundary{}
	}
	opts := exchange.Options{Buckets: x.Buckets, Prefix: x.Prefix}
	// The wait deadline runs from the task's start. The collects never wait —
	// a sealed stage's objects all exist. Under pipelined launch this worker
	// was invoked before its producers sealed, so the wait is where cold
	// start and upstream execution overlap.
	deadline := env.Now() + time.Duration(x.MaxWaitNs)
	if len(x.Inputs) > 0 {
		tr.Phase(env, "wait-sealed", env.Now())
	} else {
		tr.Phase(env, "execute", env.Now())
	}
	if f.Stall != nil {
		env.Sleep(f.Stall(p.StageID, p.WorkerID, p.Attempt))
	}

	if len(p.Plan) == 0 {
		// Regroup attempts version their round-2 publishes exactly like
		// sender attempts; the driver seals one per group.
		manifests, err := f.waitSealed(ctx, ws, p, deadline)
		if err != nil {
			return nil, nil, err
		}
		tr.Phase(env, "regroup", env.Now())
		wopts, b := p.output()
		offsets, err := exchange.RegroupSealed(client, wopts, b, p.WorkerID, x.Output.Keys, manifests[0], engine.ResidentBudget(ctx.MemoryMiB))
		return nil, offsets, err
	}

	plan, cat, rest, err := fragmentCatalog(ctx, client, p)
	if err != nil {
		return nil, nil, err
	}
	if len(x.Inputs) > 0 {
		// Wait once: the stage's one ready marker, every input's manifest in
		// input order. A multi-level boundary's manifest is its regroup
		// fleet's — the round-2 objects this worker reads exist only once
		// that fleet sealed.
		manifests, err := f.waitSealed(ctx, ws, p, deadline)
		if err != nil {
			return nil, nil, err
		}
		inputs := make([]exchange.Input, len(x.Inputs))
		for i, in := range x.Inputs {
			inputs[i] = exchange.Input{
				Boundary: exchange.Boundary{Stage: in.StageID, Senders: in.Senders, Partitions: p.NumWorkers},
				Variant:  in.Variant,
				Sealed:   manifests[i],
			}
		}
		// Read once: every input's partition through one request window,
		// within what the build sides left of the resident budget.
		collect := tr.Phase(env, "collect", env.Now())
		chunks, err := exchange.CollectSealed(client, opts, p.WorkerID, inputs, rest)
		if err != nil {
			return nil, nil, fmt.Errorf("collecting partition %d: %w", p.WorkerID, err)
		}
		if tr.Enabled() {
			tr.SetTag(collect, "bytes.in", strconv.FormatInt(client.BytesRead(), 10))
			tr.SetTag(collect, "gets", strconv.FormatInt(client.Gets(), 10))
		}
		for i, chunk := range chunks {
			cat[x.Inputs[i].Table] = engine.NewMemSource(chunk.Schema, chunk)
		}
		tr.Phase(env, "execute", env.Now())
	}

	out, err := engine.Execute(plan, cat)
	if err != nil {
		return nil, nil, err
	}
	if tr.Enabled() {
		var dead int64 // the holes the task's scans fetched between wanted ranges
		for _, src := range cat {
			if s, ok := src.(*scan.Source); ok {
				dead += s.Stats().DeadBytes
			}
		}
		tr.SetTag(tr.Current(env), "rows.out", strconv.Itoa(out.NumRows()))
		tr.SetTag(tr.Current(env), "bytes.dead", strconv.FormatInt(dead, 10))
	}
	if x.Output == nil {
		return out, nil, nil
	}
	publish := tr.Phase(env, "publish", env.Now())
	wrote := client.BytesWritten()
	wopts, b := p.output()
	offsets, err := exchange.PublishSealed(client, wopts, b, p.WorkerID, out, x.Output.Keys)
	if err != nil {
		return nil, nil, fmt.Errorf("publishing stage %d output: %w", p.StageID, err)
	}
	if tr.Enabled() {
		tr.SetTag(publish, "bytes.out", strconv.FormatInt(client.BytesWritten()-wrote, 10))
	}
	// The seal travels through the result queue: no chunk, and the offsets
	// the publish committed.
	return nil, offsets, nil
}

// waitSealed waits for the task's stage's DynamoDB ready marker, up to the
// deadline, and returns its inputs' manifests, in input order: where the
// worker's collect finds every writer's sealed attempt and offsets. Between
// checks the worker parks on the completion signal dynamo.Put broadcasts,
// armed before each Get (simenv.Barrier), with the timed poll as fallback: it
// wakes the instant the marker lands. A marker that does not split into one
// manifest per input fails the task typed, as a manifest that does not decode
// does. The Gets it took are its wait-sealed phase's polls tag.
func (f *Function) waitSealed(ctx *lambdasvc.Ctx, ws resilience.Policy, p *Payload, deadline time.Duration) ([][]byte, error) {
	table, key := p.Boundary.SealTable, SealKey(p.QueryID, p.Epoch, p.StageID)
	polls := 0
	if tr := f.Trace; tr.Enabled() {
		defer func() { tr.SetTag(tr.Current(ctx.Env), "polls", strconv.Itoa(polls)) }()
	}
	// Only the dynamo.Put of this (query, epoch, stage) ready marker wakes
	// the worker early.
	topic := "dynamo/" + table + "/" + key
	for {
		barrier := simenv.Arm(ctx.Env, topic)
		polls++
		var marker []byte
		err := ws.Do(ctx.Env, "dynamo.Get", func() error {
			var gerr error
			marker, gerr = f.Dynamo.Get(ctx.Env, table, key)
			return gerr
		})
		if errors.Is(err, dynamo.ErrNoSuchItem) && ctx.Env.Now() < deadline {
			barrier.Wait(time.Duration(p.Boundary.PollNs))
			continue
		}
		barrier.Cancel()
		if errors.Is(err, dynamo.ErrNoSuchItem) {
			return nil, fmt.Errorf("stage %d's inputs never sealed: %w", p.StageID, err)
		}
		if err != nil {
			return nil, err
		}
		manifests, err := exchange.SplitMarker(marker, len(p.Boundary.Inputs))
		if err != nil {
			return nil, fmt.Errorf("stage %d's ready marker: %w", p.StageID, err)
		}
		return manifests, nil
	}
}

// postResult is a task's last phase, post: its result, seal or failure seal
// to the query's result queue.
func (f *Function) postResult(env simenv.Env, ws resilience.Policy, p Payload, execErr error, chunk *columnar.Chunk, offsets []int64, processing time.Duration, cold bool) error {
	f.Trace.Phase(env, "post", env.Now())
	msg := Result{QueryID: p.QueryID, WorkerID: p.WorkerID, Stage: p.StageID, Attempt: p.Attempt, Epoch: p.Epoch,
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
		return f.SQS.Send(env, p.ResultQueue, body)
	})
}
