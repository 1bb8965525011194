package driver

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
	"lambada/internal/worker"
)

// The differential harness. A case is a query over the TPC-H fixture and the
// configuration it runs under; runCase runs it on DES, chaos or goroutine
// workers and holds it to single-node engine.Execute, to its own replay, and
// to an empty substrate afterwards. Its options — typed values, told apart
// by a type switch — pin what a caller knows of the plan: stage, worker and
// regroup counts, variants, launch gating, request inflation under faults.
// Its recovery knobs stall workers, plant the leftovers of an aborted run or
// run concurrent peers, and hold the recovery to its own counts.

// layout is how a test's TPC-H tables lie on S3: the SF 0.002 data of seed
// Data, each table in that many files (0: not uploaded), written with Opts.
type layout struct {
	Data          int64
	LI, Ord, Supp int
	Opts          lpq.WriterOptions
}

// stdLayout is the fixture of most staged tests.
var stdLayout = layout{Data: 11, LI: 4, Ord: 2, Opts: lpq.WriterOptions{RowGroupRows: 2000}}

// fixture is the data of one seed, generated once per test binary.
type fixture struct{ lineitem, orders, supplier *columnar.Chunk }

var fixtures sync.Map // data seed → *fixture

func tpchData(seed int64) *fixture {
	if f, ok := fixtures.Load(seed); ok {
		return f.(*fixture)
	}
	g := tpch.Gen{SF: 0.002, Seed: seed}
	li := g.Generate()
	f, _ := fixtures.LoadOrStore(seed, &fixture{lineitem: li, orders: g.OrdersFor(li), supplier: g.Supplier()})
	return f.(*fixture)
}

func (f *fixture) table(name string) *columnar.Chunk {
	return map[string]*columnar.Chunk{"lineitem": f.lineitem, "orders": f.orders, "supplier": f.supplier}[name]
}

// catalog binds every table of the fixture for a single-node run.
func (f *fixture) catalog() engine.Catalog {
	cat := engine.Catalog{}
	for _, name := range []string{"lineitem", "orders", "supplier"} {
		cat[name] = engine.NewMemSource(f.table(name).Schema, f.table(name))
	}
	return cat
}

// upload installs sess and uploads the tables of l.
func (l layout) upload(env simenv.Env, sess *Session) (TableFiles, error) {
	if err := sess.Install(); err != nil {
		return nil, err
	}
	tables := TableFiles{}
	for _, t := range []struct {
		name string
		n    int
	}{{"lineitem", l.LI}, {"orders", l.Ord}, {"supplier", l.Supp}} {
		if t.n == 0 {
			continue
		}
		refs, err := sess.UploadTable(env, "tpch", t.name, tpchData(l.Data).table(t.name), t.n, l.Opts)
		if err != nil {
			return nil, err
		}
		tables[t.name] = refs
	}
	return tables, nil
}

// onDES runs body as the driver process of a fresh kernel, on the deployment
// mk builds on it, with a session of cfg that has l uploaded. It returns the
// session, and body's error or the kernel's deadlock.
func onDES(mk func(*simclock.Kernel) *Deployment, cfg Config, l layout, body func(p *simclock.Proc, sess *Session, tables TableFiles) error) (*Session, error) {
	k := simclock.New()
	sess := NewSession(mk(k), cfg)
	err := errors.New("the driver process never returned")
	k.Go("driver", func(p *simclock.Proc) {
		tables, uerr := l.upload(p, sess)
		if err = uerr; err == nil {
			err = body(p, sess, tables)
		}
	})
	k.Run()
	if k.Deadlocked() {
		return sess, errors.New("DES deadlocked")
	}
	return sess, err
}

// simulated is the deployment maker of a fault-free DES run.
func simulated(seed int64) func(*simclock.Kernel) *Deployment {
	return func(k *simclock.Kernel) *Deployment { return NewSimulated(k, seed) }
}

// onGoroutines is onDES on goroutine workers: dep is a NewLocal deployment,
// the environment an Immediate.
func onGoroutines(dep *Deployment, cfg Config, l layout, body func(env simenv.Env, sess *Session, tables TableFiles) error) (*Session, error) {
	env := simenv.NewImmediate()
	sess := NewSession(dep, cfg)
	tables, err := l.upload(env, sess)
	if err == nil {
		err = body(env, sess, tables)
	}
	return sess, err
}

// goSession is a goroutine-worker session of cfg with l uploaded.
func goSession(t *testing.T, cfg Config, l layout) (*Session, simenv.Env, TableFiles) {
	t.Helper()
	var env simenv.Env
	var tables TableFiles
	sess, err := onGoroutines(NewLocal(), cfg, l, func(e simenv.Env, _ *Session, tf TableFiles) error {
		env, tables = e, tf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, env, tables
}

// desConfig is DefaultConfig with the slower result poll DES tests run at.
func desConfig() Config {
	cfg := DefaultConfig()
	cfg.PollInterval = 50 * time.Millisecond
	return cfg
}

// sameRows reports the first way got differs from want: schema, row count,
// or a value not bit-identical — for a float column, with tol > 0, not
// within tol relative.
func sameRows(got, want *columnar.Chunk, tol float64) error {
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema = %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for j, w := range want.Columns {
		g := got.Columns[j]
		for i := 0; i < want.NumRows(); i++ {
			var gv, wv any
			same := true
			switch w.Type {
			case columnar.Int64:
				gv, wv = g.Int64s[i], w.Int64s[i]
			case columnar.Float64:
				a, b := g.Float64s[i], w.Float64s[i]
				gv, wv = a, b
				same = math.Float64bits(a) == math.Float64bits(b) || tol > 0 && math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
			case columnar.Bool:
				gv, wv = g.Bools[i], w.Bools[i]
			}
			if w.Type != columnar.Float64 {
				same = gv == wv
			}
			if !same {
				return fmt.Errorf("column %s row %d = %v, want %v", want.Schema.Fields[j].Name, i, gv, wv)
			}
		}
	}
	return nil
}

func chunksIdentical(t *testing.T, got, want *columnar.Chunk) {
	t.Helper()
	if err := sameRows(got, want, 0); err != nil {
		t.Fatal(err)
	}
}

func singleNode(t *testing.T, sql string, cat engine.Catalog) *columnar.Chunk {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// planCase is one differential case. The zero value of a knob is its
// default.
type planCase struct {
	// Seed is the generator's (0 for a hand-written case).
	Seed int64
	Q    sqlQuery
	// Tol is the relative tolerance on float columns; 0 is bit-identity.
	Tol    float64
	Layout layout
	// Unregistered is a table the query scans that nobody registered.
	Unregistered string
	// Refused: the planner must refuse the query, typed, before any Invoke.
	Refused bool
	// Default runs at DefaultStageConfig(), the knobs below ignored; a query
	// over one table then replays through RunSQL, the other entrance.
	Default           bool
	Partitions        int
	BroadcastRowLimit int64
	Levels            int
	Basic             bool // boundaries without write combining
	MaxInFlight       int
	Speculate         bool
	Faults            faults.Plan
	// Goroutines runs on goroutine workers, where nothing replays, instead
	// of the DES kernel.
	Goroutines bool
	// Stall stalls workers of one stage (with Speculate on, under a 20 s
	// liveness cap); Zombie runs the query as the retry of an aborted run
	// (plantZombie); Concurrent runs it and Concurrent−1 peers (peers) at
	// once, each its own kernel process on the one session, under an
	// admission cap of Concurrent unless MaxInFlight sets one.
	Stall      stall
	Zombie     bool
	Concurrent int
	// untraced runs without a tracer: Duration is then the instant the rows
	// reached the caller.
	untraced bool
}

// stall is attempt 0 of worker 0 (one), of every worker (all) or of every
// worker but 0 (all-but-one) of stage Stage sleeping For. The scheduler must
// back exactly those workers up: through the quorum's median deadline while
// enough of the fleet responds, through the liveness cap when it does not.
type stall struct {
	Workers stalled
	Stage   int
	For     time.Duration
}

type stalled int

const (
	stallOne stalled = 1 + iota
	stallAll
	stallAllButOne
)

func (s stalled) String() string { return []string{"none", "one", "all", "all-but-one"}[s] }

// delay is the Config.testWorkerDelay of s.
func (s stall) delay(stage, worker, attempt int) time.Duration {
	hit := map[stalled]bool{stallOne: worker == 0, stallAll: true, stallAllButOne: worker != 0}[s.Workers]
	if stage != s.Stage || attempt != 0 || !hit {
		return 0
	}
	return s.For
}

// count is how many workers of an n-worker stage s stalls.
func (s stall) count(n int) int {
	return map[stalled]int{stallOne: 1, stallAll: n, stallAllButOne: n - 1}[s.Workers]
}

func (c planCase) String() string {
	s := fmt.Sprintf("layout %+v", c.Layout)
	for _, kv := range []struct {
		name string
		on   bool
		val  any
	}{
		{"unregistered", c.Unregistered != "", c.Unregistered},
		{"refused", c.Refused, true}, {"default stage config", c.Default, true},
		{"partitions", c.Partitions != 0, c.Partitions}, {"broadcast rows", c.BroadcastRowLimit != 0, c.BroadcastRowLimit},
		{"levels", c.Levels != 0, c.Levels}, {"basic", c.Basic, true}, {"max in flight", c.MaxInFlight != 0, c.MaxInFlight},
		{"speculate", c.Speculate, true}, {"faults", len(c.Faults.Rules) > 0, c.Faults}, {"goroutines", c.Goroutines, true},
		{"stall", c.Stall.Workers != 0, c.Stall}, {"zombie", c.Zombie, true}, {"concurrent", c.Concurrent != 0, c.Concurrent},
	} {
		if kv.on {
			s += fmt.Sprintf(", %s %v", kv.name, kv.val)
		}
	}
	return s
}

func (c planCase) stageConfig() StageConfig {
	scfg := DefaultStageConfig()
	if c.Stall.Workers != 0 {
		scfg.MaxStageWait = 20 * time.Second
	}
	if c.Default {
		return scfg
	}
	scfg.Partitions, scfg.BroadcastRowLimit = c.Partitions, c.BroadcastRowLimit
	scfg.Exchange.Poll = 100 * time.Millisecond
	scfg.Exchange.Variant.Levels, scfg.Exchange.Variant.WriteCombining = c.Levels, !c.Basic
	return scfg
}

// The options of runCase.
type (
	wantStages   int
	wantWorkers  int
	wantRegroups int
	// wantVariant is every boundary's variant.
	wantVariant string
	// waveLaunch runs with wave-gated launch and requires every stage to
	// launch after its producers sealed.
	waveLaunch struct{}
	// overlapped requires pipelined launch, gated on first winners: every
	// consumer launched after each producer's first winner sent its seal, and
	// some consumer before its producers all sealed.
	overlapped struct{}
	// inflation runs a fault-free twin of a faulted case and requires its
	// rows, an injected storm that workers retried, billed S3 requests within
	// [1, 2]× the twin's and SQS requests within 4×.
	inflation struct{}
	// configure edits the session config.
	configure func(*Config)
	// phased requires the phases of every invocation to tile it
	// (phasesTile), and the replay to export a byte-identical trace.
	phased struct{}
)

// runCase checks c and returns its shape classes. On a failure it shrinks c
// greedily to a case that still fails and prints that case, the seed and the
// command that replays it.
func runCase(t *testing.T, c planCase, options ...any) []string {
	t.Helper()
	shapes, err := checkCase(c, options)
	if err == nil {
		return shapes
	}
	small, serr := shrink(c, options, err)
	parts := strings.Split(t.Name(), "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	t.Fatalf("seed %d: %v\nshrunk SQL: %s\nshrunk config: %s\nshrunk failure: %v\nreplay: go test ./internal/driver/ -run '%s'",
		c.Seed, err, small.Q.SQL(), small, serr, strings.Join(parts, "/"))
	return nil
}

// queryRun is one query of a run: its case, its answer, and the leak
// audit's finding once the run is over.
type queryRun struct {
	c    planCase
	out  *columnar.Chunk
	rep  *Report
	err  error
	leak error
}

// caseRun is one execution of a case: its query, and its peers.
type caseRun struct {
	queryRun
	peers []queryRun
	// billed is what the meter moved while the queries ran.
	billed obs.Cost
	adm    *invoke.Admission
}

// run executes c once: fault-free when clean, through RunSQL when entrance.
func (c planCase) run(o []any, clean, entrance bool) (r caseRun, err error) {
	cfg := desConfig()
	cfg.MaxInFlight = cmp.Or(c.MaxInFlight, c.Concurrent)
	cfg.Speculate = c.Speculate
	if c.Stall.Workers != 0 {
		cfg.testWorkerDelay = c.Stall.delay
	}
	r.c, r.peers = c, c.peers()
	for _, opt := range o {
		switch v := opt.(type) {
		case waveLaunch:
			cfg.testWaveLaunch = true
		case configure:
			v(&cfg)
		}
	}
	queries := []*queryRun{&r.queryRun}
	for i := range r.peers {
		queries = append(queries, &r.peers[i])
	}
	body := func(env simenv.Env, sess *Session, tables TableFiles) error {
		if c.Zombie {
			if err := plantZombie(env, sess); err != nil {
				return err
			}
		}
		before := sess.dep.Meter.Cost()
		if len(queries) == 1 {
			r.exec(env, sess, tables, entrance)
		} else {
			runConcurrently(env.(*simclock.Proc), sess, tables, queries)
		}
		r.billed = sess.dep.Meter.Cost().Sub(before)
		return nil
	}
	traced := func(dep *Deployment) *Deployment {
		if !c.untraced {
			dep.EnableTracing(obs.New())
		}
		return dep
	}
	var sess *Session
	if c.Goroutines {
		sess, err = onGoroutines(traced(NewLocal()), cfg, c.Layout, body)
	} else {
		plan := c.Faults
		if clean {
			plan = faults.Plan{}
		}
		sess, err = onDES(func(k *simclock.Kernel) *Deployment { return traced(NewChaos(k, 71+c.Seed, plan)) },
			cfg, c.Layout, func(p *simclock.Proc, sess *Session, tables TableFiles) error { return body(p, sess, tables) })
	}
	if err != nil {
		return r, err
	}
	for i, q := range queries {
		q.leak = queryLeaks(sess, fmt.Sprintf("q%d", i+1))
	}
	r.adm = sess.Admission()
	return r, nil
}

// exec runs q's query on sess over files, its unregistered table dropped.
func (q *queryRun) exec(env simenv.Env, sess *Session, files TableFiles, entrance bool) {
	c := q.c
	tables := maps.Clone(files)
	delete(tables, c.Unregistered)
	if entrance {
		q.out, q.rep, q.err = sess.RunSQL(env, c.Q.SQL(), c.Q.From, tables[c.Q.From])
	} else {
		q.out, q.rep, q.err = sess.RunSQLStaged(env, c.Q.SQL(), tables, c.stageConfig())
	}
}

// runConcurrently runs queries at once on p's kernel, each its own process,
// started in order — so the i-th is q<i+1> — and returns once all have.
func runConcurrently(p *simclock.Proc, sess *Session, files TableFiles, queries []*queryRun) {
	done := 0
	for _, q := range queries {
		p.Kernel().Go("query", func(qp *simclock.Proc) {
			q.exec(qp, sess, files, false)
			done++
			qp.NotifyKey("test/done")
		})
	}
	for done < len(queries) {
		simenv.WaitNotifyKey(p, "test/done", time.Second)
	}
}

// peers draws the Concurrent−1 queries that run beside c's: generated cases
// over c's tables, each query with its own stage config, all under c's
// session and deployment — so with c's faults, speculation and cap, and no
// stall, zombie or peers of their own.
func (c planCase) peers() []queryRun {
	var out []queryRun
	for seed := c.Seed*genSeeds + 1; len(out) < c.Concurrent-1; seed++ {
		g := genCase(seed)
		files := map[string]int{"lineitem": c.Layout.LI, "orders": c.Layout.Ord, "supplier": c.Layout.Supp}
		if g.Refused || slices.ContainsFunc(g.Q.Joins, func(j sqlJoin) bool { return files[j.Table] == 0 }) {
			continue
		}
		out = append(out, queryRun{c: planCase{Seed: seed, Q: g.Q, Tol: g.Tol, Layout: c.Layout,
			Default: g.Default, Partitions: g.Partitions, BroadcastRowLimit: g.BroadcastRowLimit, Levels: g.Levels, Basic: g.Basic,
			MaxInFlight: c.MaxInFlight, Speculate: c.Speculate, Faults: c.Faults, Goroutines: c.Goroutines}})
	}
	return out
}

// zombieSeals is how many seals plantZombie posts: two before the run, four
// during it.
const zombieSeals = 6

// plantZombie leaves on sess's deployment what an aborted run of q1 leaves
// behind it: its epoch fence at 1, a committed boundary publish under q1/e1
// whose rows would skew any answer that read them, and two seals of epoch 1
// on q1's result queue, one a result chunk that is no lpq blob. And it
// wraps the worker, so that the retry's first task, while the retry runs,
// publishes more of the zombie's objects under q1/e1 and posts, before its
// own seal, the zombie's seal, two strays of the retry's epoch — worker
// −1, a retryable failure, and worker n of an n-worker stage — and a body
// that is no JSON at all.
func plantZombie(env simenv.Env, sess *Session) error {
	dep, cfg := sess.dep, sess.cfg
	// A post that fails shows as a discard count short of zombieSeals.
	post := func(env simenv.Env, queue string, msgs ...worker.Result) {
		for _, rm := range msgs {
			body, _ := json.Marshal(rm)
			_ = dep.SQS.Send(env, queue, body)
		}
	}
	table := stagesTableName(cfg.FunctionName)
	dep.Dynamo.CreateTable(table)
	opts := exchange.Options{Variant: exchange.Variant{Levels: 1}, Buckets: sess.InstallExchange(), Prefix: queryPrefix(cfg.FunctionName, "q1") + "e1"}
	publish := func(env simenv.Env, sender int) error {
		_, err := exchange.PublishSealed(s3.NewClient(dep.S3, env), opts, exchange.Boundary{Stage: 1, Senders: 4, Partitions: 2}, sender,
			tpchData(stdLayout.Data).orders, []string{"o_orderkey"})
		return err
	}
	err := publish(env, 0)
	queue := queryQueueName(cfg.ResultQueue, "q1")
	dep.SQS.CreateQueue(queue)
	post(env, queue, worker.Result{QueryID: "q1", Epoch: 1, Stage: 1}, worker.Result{QueryID: "q1", Epoch: 1, Chunk: []byte("not an lpq blob")})
	if err = errors.Join(err, dep.Dynamo.Put(env, table, epochKey("q1"), []byte("1@0"))); err != nil {
		return err
	}
	var posted atomic.Bool // not a sync.Once: a DES post parks its process
	return dep.Lambda.CreateFunction(cfg.FunctionName, cfg.WorkerMemoryMiB, cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
		var p worker.Payload
		if json.Unmarshal(payload, &p) == nil && len(p.Plan) > 0 && p.Epoch > 0 && posted.CompareAndSwap(false, true) {
			if err := publish(ctx.Env, 1); err != nil {
				return err // the task never seals, and the query fails
			}
			post(ctx.Env, p.ResultQueue, worker.Result{QueryID: p.QueryID, Epoch: p.Epoch - 1, Stage: p.StageID, WorkerID: p.WorkerID},
				worker.Result{QueryID: p.QueryID, Epoch: p.Epoch, Stage: p.StageID, WorkerID: -1, Err: "stray", Retryable: true},
				worker.Result{QueryID: p.QueryID, Epoch: p.Epoch, Stage: p.StageID, WorkerID: p.NumWorkers})
			_ = dep.SQS.Send(ctx.Env, p.ResultQueue, []byte(`{"queryId":`))
		}
		return sess.worker.Handle(ctx, payload)
	})
}

// checkCase runs c and returns its shape classes, or the first way it
// failed.
func checkCase(c planCase, o []any) ([]string, error) {
	a, err := c.run(o, false, false)
	if err != nil {
		return nil, err
	}
	if c.Refused {
		switch {
		case !errors.Is(a.err, ErrInvalidPlan):
			return nil, fmt.Errorf("err = %v, want ErrInvalidPlan", a.err)
		case a.billed.LambdaInvokes != 0:
			return nil, fmt.Errorf("a refused plan invoked %d workers", a.billed.LambdaInvokes)
		}
		return []string{"refused"}, a.leak
	}
	for _, q := range append([]queryRun{a.queryRun}, a.peers...) {
		if err := q.check(len(a.peers) > 0); err != nil {
			return nil, err
		}
	}
	if err := c.invariants(a, o); err != nil {
		return nil, err
	}

	// The replay: a second DES run must repeat the first to the row and the
	// nanodollar, and a query over one table must plan, run and bill alike
	// through either entrance.
	entrance := c.Default && len(c.Q.Joins) == 0 && c.Stall.Workers == 0
	if !c.Goroutines || entrance {
		b, err := c.run(o, false, entrance)
		if err != nil {
			return nil, err
		}
		for i, q := range append([]queryRun{b.queryRun}, b.peers...) {
			if err := q.repeats(append([]queryRun{a.queryRun}, a.peers...)[i], entrance); err != nil {
				return nil, err
			}
		}
		if slices.ContainsFunc(o, func(v any) bool { _, ok := v.(phased); return ok }) {
			var ea, eb bytes.Buffer
			if err := errors.Join(obs.ExportChromeTrace(&ea, a.rep.Trace.Spans()), obs.ExportChromeTrace(&eb, b.rep.Trace.Spans())); err != nil {
				return nil, err
			}
			if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
				return nil, fmt.Errorf("replay exported a different trace (%d bytes, the first run %d)", eb.Len(), ea.Len())
			}
		}
	}
	if slices.ContainsFunc(o, func(v any) bool { _, ok := v.(inflation); return ok }) {
		if err := c.inflation(a, o); err != nil {
			return nil, err
		}
	}
	if c.Stall.Workers != 0 {
		if err := c.stalled(a, o); err != nil {
			return nil, err
		}
	}
	return a.shapes(), nil
}

// check holds one query of a run to what every query owes: the single
// node's rows, a clean substrate, an epoch iff a boundary, a winner per
// worker, no Invoke for a stage that sealed, and — unless other queries
// shared its window — a trace that carries the bill and, without faults, an
// Invoke per worker, backup and relaunch; and to its knobs' counts.
func (q queryRun) check(shared bool) error {
	c, rep := q.c, q.rep
	plan, err := sqlfe.Parse(c.Q.SQL())
	var want *columnar.Chunk
	if err == nil {
		want, err = engine.Execute(plan, tpchData(c.Layout.Data).catalog())
	}
	switch {
	case err != nil:
		return fmt.Errorf("the query does not run on a single node: %v", err)
	case q.err != nil:
		return fmt.Errorf("query failed: %w", q.err)
	case q.leak != nil:
		return q.leak
	}
	if err := sameRows(q.out, want, c.Tol); err != nil {
		return fmt.Errorf("rows against single-node: %w", err)
	}
	boundary := slices.ContainsFunc(rep.StageStats, func(ss StageStat) bool { return ss.Variant != "" })
	wantEpoch := map[bool]int{true: 1}[boundary] // 2 behind a zombie's fence
	if c.Zombie {
		wantEpoch *= 2
	}
	qs := rep.Trace.Spans()[rep.Span-1]
	zombies, tree, late := qs.Tags["zombieDiscards"], obs.NewTree(rep.Trace.Spans()), error(nil)
	for _, ss := range rep.StageStats {
		tree.Walk(ss.Span, func(s *obs.Span) {
			if s.Kind == obs.KindInvoke && s.Start > qs.Start+ss.Sealed && late == nil {
				late = fmt.Errorf("stage %d (regroup %t) sealed at %v, and invoked a worker at %v", ss.StageID, ss.Regroup, ss.Sealed, s.Start-qs.Start)
			}
		})
	}
	switch {
	case late != nil:
		return late
	case rep.Epoch != wantEpoch:
		return fmt.Errorf("epoch %d with boundaries %t, want %d", rep.Epoch, boundary, wantEpoch)
	case len(rep.WorkerProcessing) != rep.Workers:
		return fmt.Errorf("%d winners' processing times for %d workers", len(rep.WorkerProcessing), rep.Workers)
	case !c.Goroutines && !shared && rep.Profile().Cost != rep.Cost:
		return fmt.Errorf("spans carry %+v, the meter moved %+v", rep.Profile().Cost, rep.Cost)
	case !shared && len(c.Faults.Rules) == 0 && rep.Cost.LambdaInvokes != int64(rep.Workers+rep.Speculated+rep.FailureSeals):
		return fmt.Errorf("%d invocations for %d workers, %d backups and %d relaunches", rep.Cost.LambdaInvokes, rep.Workers, rep.Speculated, rep.FailureSeals)
	case len(c.Faults.Rules) == 0 && len(rep.InjectedFaults) != 0:
		return fmt.Errorf("no fault planned, %v injected", rep.InjectedFaults)
	case c.Speculate && c.Stall.Workers == 0 && len(c.Faults.Rules) == 0 && rep.Speculated != 0:
		return fmt.Errorf("no stall and no fault, and %d backups", rep.Speculated)
	case c.Zombie && (zombies != strconv.Itoa(zombieSeals) || rep.FailureSeals != 0):
		return fmt.Errorf("zombie: %q of %d planted seals discarded, %d failure seals relaunched", zombies, zombieSeals, rep.FailureSeals)
	}
	return nil
}

// repeats requires replay r of query q to repeat its rows and fleet — and on
// the DES kernel its Duration and Cost.
func (r queryRun) repeats(q queryRun, entrance bool) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("replay (RunSQL %t) failed: %w", entrance, r.err)
	case r.leak != nil:
		return r.leak
	}
	if err := sameRows(r.out, q.out, 0); err != nil {
		return fmt.Errorf("replay (RunSQL %t) rows: %w", entrance, err)
	}
	if r.rep.Workers != q.rep.Workers || r.rep.Stages != q.rep.Stages {
		return fmt.Errorf("replay (RunSQL %t) ran %d workers in %d stages, the first run %d in %d", entrance, r.rep.Workers, r.rep.Stages, q.rep.Workers, q.rep.Stages)
	}
	if !q.c.Goroutines && (r.rep.Duration != q.rep.Duration || r.rep.Cost != q.rep.Cost) {
		return fmt.Errorf("replay (RunSQL %t) took %v and billed %+v, the first run %v and %+v", entrance, r.rep.Duration, r.rep.Cost, q.rep.Duration, q.rep.Cost)
	}
	return nil
}

// invariants holds a successful run to the session's admission bounds and
// to the plan shape the options pin.
func (c planCase) invariants(a caseRun, o []any) error {
	rep := a.rep
	if adm := a.adm; adm != nil && len(c.Faults.Rules) == 0 && !c.Speculate && (adm.Peak() > adm.Capacity() || adm.Overflow() != 0) {
		return fmt.Errorf("admission peak %d, overflow %d, over the cap %d", adm.Peak(), adm.Overflow(), adm.Capacity())
	}
	if len(a.peers) > 0 {
		var sum obs.Cost
		for _, q := range append([]queryRun{a.queryRun}, a.peers...) {
			sum.Add(q.rep.Profile().Cost)
		}
		switch {
		case sum != a.billed:
			return fmt.Errorf("concurrent: the profiles sum to %+v, the meter moved %+v", sum, a.billed)
		case a.adm.Blocked() == 0:
			return fmt.Errorf("concurrent: the cap %d never blocked %d queries", a.adm.Capacity(), len(a.peers)+1)
		}
	}
	regroups := 0
	for _, ss := range rep.StageStats {
		if ss.Regroup {
			regroups++
		}
	}
	for _, opt := range o {
		var err error
		switch v := opt.(type) {
		case wantStages:
			if rep.Stages != int(v) {
				err = fmt.Errorf("%d stages, want %d", rep.Stages, v)
			}
		case wantWorkers:
			if rep.Workers != int(v) {
				err = fmt.Errorf("%d workers, want %d", rep.Workers, v)
			}
		case wantRegroups:
			if regroups != int(v) {
				err = fmt.Errorf("%d regroup fleets, want %d", regroups, v)
			}
		case wantVariant:
			for _, ss := range rep.StageStats {
				if ss.Variant != "" && ss.Variant != string(v) {
					err = fmt.Errorf("stage %d (regroup %t) ran %q, want %q", ss.StageID, ss.Regroup, ss.Variant, v)
				}
			}
		case waveLaunch:
			err = wavesGated(rep)
		case overlapped:
			err = pipelined(rep)
		case phased:
			err = phasesTile(rep.Trace.Spans())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stalled is the Stall knob's check of run a: the stalled stage backed up
// exactly the workers stalled, and — unless the admission cap held the rest
// of its fleet behind them — the query returned before the stall was over
// and before a speculation-off twin did. An untraced run shows when the
// caller got its rows (a traced Duration waits out the losers and the
// reclaim, query.quiesce): its Duration must end where a's merge phase did —
// the reclaim of the query's objects runs behind it — and it too must leave
// nothing behind.
func (c planCase) stalled(a caseRun, o []any) error {
	ss := stageStats(a.rep)(c.Stall.Stage)
	want := c.Stall.count(ss.Workers)
	switch {
	case ss.Workers == 0:
		return fmt.Errorf("no stage %d to stall", c.Stall.Stage) // a failure of its own kind: shrink keeps the stage
	case ss.Speculated != want:
		return fmt.Errorf("stall: stage %d backed up %d of its %d workers, want %d", c.Stall.Stage, ss.Speculated, ss.Workers, want)
	case want == 0 || a.adm != nil && a.adm.Blocked() > 0:
		return nil
	}
	c.untraced = true // c is a copy
	u, err := c.run(o, false, false)
	c.Speculate = false // the speculation-off twin
	t, terr := c.run(o, false, false)
	if err = errors.Join(err, u.err, u.leak, terr, t.err); err != nil {
		return fmt.Errorf("stall: untraced runs: %w", err)
	}
	qs := a.rep.Trace.Spans()[a.rep.Span-1]
	var returned time.Duration
	for _, s := range a.rep.Trace.Spans() {
		if s.Parent == a.rep.Span && s.Kind == obs.KindPhase && s.Name == "merge" {
			returned = s.End - qs.Start
		}
	}
	if got, off := u.rep.Duration, t.rep.Duration; got != returned || got >= c.Stall.For || got >= off {
		return fmt.Errorf("stall: returned at %v (the traced run's merge ended at %v), stalled for %v, the speculation-off twin at %v", got, returned, c.Stall.For, off)
	}
	return nil
}

// phasesTile requires of every invocation in spans that its children are
// phases with a stage-table column, so every span under it lies in one, and
// that they tile it: each starts where the one before ended, the first at the
// invocation's start, the last ending at its end — where a crash ends it,
// Release's back-fill. The invocation itself carries its billed duration and
// nothing else, so its phases' subtrees carry the rest of its subtree's cost.
func phasesTile(spans []obs.Span) error {
	tree := obs.NewTree(spans)
	children := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, inv := range spans {
		if inv.Kind != obs.KindInvoke {
			continue
		}
		if inv.Cost != (obs.Cost{LambdaMiBNs: inv.Cost.LambdaMiBNs}) {
			return fmt.Errorf("invocation %d is charged %+v outside its phases", inv.ID, inv.Cost)
		}
		at, cost := inv.Start, inv.Cost
		for _, ph := range children[inv.ID] {
			switch {
			case ph.Kind != obs.KindPhase:
				return fmt.Errorf("%s span %q hangs off invocation %d outside any phase", ph.Kind, ph.Name, inv.ID)
			case !slices.Contains(phaseOrder, ph.Name):
				return fmt.Errorf("invocation %d: phase %q has no column in the stage table", inv.ID, ph.Name)
			case ph.Start != at:
				return fmt.Errorf("invocation %d: phase %q starts at %v, the one before ended at %v", inv.ID, ph.Name, ph.Start, at)
			}
			at = ph.End
			cost.Add(tree.SubtreeCost(ph.ID))
		}
		if at != inv.End {
			return fmt.Errorf("invocation %d ends at %v, its phases at %v", inv.ID, inv.End, at)
		}
		if sub := tree.SubtreeCost(inv.ID); cost != sub {
			return fmt.Errorf("invocation %d: phases and duration carry %+v, its subtree %+v", inv.ID, cost, sub)
		}
	}
	return nil
}

// wavesGated requires every stage of a wave-gated run to launch no earlier
// than every stage it depends on sealed.
func wavesGated(rep *Report) error {
	of := stageStats(rep)
	for _, st := range rep.Plan.Stages {
		for _, dep := range st.DependsOn {
			if of(st.ID).Launched < of(dep).Sealed {
				return fmt.Errorf("wave launch not gated: stage %d launched %v, before stage %d sealed at %v", st.ID, of(st.ID).Launched, dep, of(dep).Sealed)
			}
		}
	}
	return nil
}

// pipelined is the overlapped option's check: each consumer launched after
// every producer's first winner, and some consumer before its producers all
// sealed — one whose producers' seals all came in one Receive launches at the
// seal.
func pipelined(rep *Report) error {
	of := stageStats(rep)
	overlap := false
	for _, st := range rep.Plan.Stages {
		var lastSeal time.Duration
		for _, dep := range st.DependsOn {
			if of(st.ID).Launched < of(dep).FirstWinner {
				return fmt.Errorf("launch not gated: stage %d launched %v, before stage %d's first winner at %v", st.ID, of(st.ID).Launched, dep, of(dep).FirstWinner)
			}
			lastSeal = max(lastSeal, of(dep).Sealed)
		}
		overlap = overlap || len(st.DependsOn) > 0 && of(st.ID).Launched < lastSeal
	}
	if !overlap {
		return errors.New("pipelined launch not overlapped: every consumer launched after its producers sealed")
	}
	return nil
}

// stageStats looks up a run's StageStat by its dense stage ID, a regroup
// stage's under the producer it is booked to.
func stageStats(rep *Report) func(id int) StageStat {
	stat := map[[2]int]StageStat{} // (booked ID, regroup) → stat
	for _, ss := range rep.StageStats {
		stat[[2]int{ss.StageID, map[bool]int{false: 0, true: 1}[ss.Regroup]}] = ss
	}
	return func(id int) StageStat {
		for _, st := range rep.Plan.Stages {
			if producer, ok := st.RegroupOf(); ok && st.ID == id {
				return stat[[2]int{producer, 1}]
			}
		}
		return stat[[2]int{id, 0}]
	}
}

// inflation is the inflation option's check of a faulted run a.
func (c planCase) inflation(a caseRun, o []any) error {
	clean, err := c.run(o, true, false)
	if err == nil {
		err = clean.err
	}
	if err != nil {
		return fmt.Errorf("fault-free twin: %w", err)
	}
	s3Reqs := func(r caseRun) int64 { return r.billed.S3Get + r.billed.S3Put }
	if err := sameRows(a.out, clean.out, 0); err != nil {
		return fmt.Errorf("rows against the fault-free twin: %w", err)
	}
	// The twin's later attempts are speculative backups: work its first
	// attempts also did, which a faulted run need not duplicate.
	first := s3Reqs(clean) - laterAttemptS3Reqs(clean)
	switch {
	case len(a.rep.InjectedFaults) == 0 || a.rep.WorkerRetries == 0:
		return fmt.Errorf("injected %v, %d worker retries: want a storm the workers retried", a.rep.InjectedFaults, a.rep.WorkerRetries)
	case s3Reqs(a) < first || s3Reqs(a) > 2*s3Reqs(clean):
		return fmt.Errorf("billed %d S3 requests, the fault-free twin %d, %d of them its first attempts': want at least those and within 2×",
			s3Reqs(a), s3Reqs(clean), first)
	case a.billed.SQSRequests > 4*clean.billed.SQSRequests:
		return fmt.Errorf("billed %d SQS requests, the fault-free twin %d: want within 4×", a.billed.SQSRequests, clean.billed.SQSRequests)
	}
	return nil
}

// laterAttemptS3Reqs sums the S3 requests r's trace charges to worker
// invocations past their first attempt — relaunches and speculative backups —
// each request to its nearest invocation span.
func laterAttemptS3Reqs(r caseRun) int64 {
	spans := r.rep.Trace.Spans()
	var n int64
	for _, s := range spans {
		id := s.ID
		for id != 0 && spans[id-1].Kind != obs.KindInvoke {
			id = spans[id-1].Parent
		}
		if id != 0 && spans[id-1].Tags["attempt"] != "" {
			n += s.Cost.S3Get + s.Cost.S3Put
		}
	}
	return n
}

// shapes names the classes of plan a run exercised.
func (a caseRun) shapes() []string {
	c, out := a.c, []string(nil)
	add := func(on bool, class string) {
		if on {
			out = append(out, class)
		}
	}
	sp := a.rep.Plan
	add(strings.HasPrefix(sp.Merge, "driver"), "aggregate merged on the driver")
	add(strings.HasPrefix(sp.Merge, "repartition"), "aggregate repartitioned")
	add(sp.Merge == "" && slices.ContainsFunc(sp.Stages, func(st *stageplan.Stage) bool { return len(st.Inputs) == 2 }), "bare shuffle join")
	add(slices.ContainsFunc(sp.Stages, func(st *stageplan.Stage) bool { return len(buildSides(st)) > 0 }), "planner-chosen broadcast")
	for _, v := range []string{"2l", "2l-wc"} {
		add(slices.ContainsFunc(a.rep.StageStats, func(ss StageStat) bool { return ss.Variant == v }), v+" boundary")
	}
	add(a.adm != nil && a.adm.Blocked() > 0, "admission cap")
	add(len(a.rep.InjectedFaults) > 0 && a.rep.FailureSeals+a.rep.Speculated > 0, "faults relaunched or speculated")
	add(c.Goroutines, "goroutine workers")
	if n := stageStats(a.rep)(c.Stall.Stage).Workers; c.Stall.Workers != 0 && c.Stall.count(n) > 0 {
		blocked := a.adm != nil && a.adm.Blocked() > 0
		quorum := n-c.Stall.count(n) >= max(int(speculateQuorum*float64(n)), 1)
		add(blocked, "stall behind the admission cap")
		add(!blocked && quorum, "straggler backed up")
		add(!blocked && !quorum, "stalled fleet re-invoked by the cap")
	}
	add(c.Zombie, "zombie fenced")
	add(len(a.peers) > 0, "concurrent queries")
	return out
}

// shrink greedily takes c's simpler variants that still fail the same way —
// their failure reads alike up to its first colon — until none does, and
// returns the last with its failure.
func shrink(c planCase, o []any, err error) (planCase, error) {
	kind := func(err error) string { return strings.SplitN(err.Error(), ":", 2)[0] }
	for tries := 0; tries < 64; {
		progressed := false
		for _, s := range c.simpler() {
			tries++
			if _, serr := checkCase(s, o); serr != nil && kind(serr) == kind(err) {
				c, err, progressed = s, serr, true
				break
			}
		}
		if !progressed {
			break
		}
	}
	return c, err
}

// simpler lists c with one thing taken away: a config knob back at its
// default, a file, a LIMIT, a WHERE conjunct, an aggregate, a join nothing
// else refers to.
func (c planCase) simpler() []planCase {
	var out []planCase
	try := func(on bool, edit func(d *planCase)) {
		if on {
			d := c
			d.Q = c.Q.clone()
			edit(&d)
			out = append(out, d)
		}
	}
	try(len(c.Faults.Rules) > 0, func(d *planCase) { d.Faults = faults.Plan{} })
	try(c.Stall.Workers != 0, func(d *planCase) { d.Stall = stall{} })
	try(c.Zombie, func(d *planCase) { d.Zombie = false })
	try(c.Concurrent > 0, func(d *planCase) { d.Concurrent = 0 })
	try(c.Speculate && c.Stall.Workers == 0, func(d *planCase) { d.Speculate = false })
	try(c.MaxInFlight > 0, func(d *planCase) { d.MaxInFlight = 0 })
	try(c.Levels > 0, func(d *planCase) { d.Levels = 0 })
	try(c.Partitions > 2, func(d *planCase) { d.Partitions = 2 })
	try(c.Layout.LI > 1, func(d *planCase) { d.Layout.LI /= 2 })
	try(c.Layout.Ord > 1, func(d *planCase) { d.Layout.Ord = 1 })
	try(c.Q.Limit > 0, func(d *planCase) { d.Q.Limit = 0 })
	for i := range c.Q.Where {
		try(true, func(d *planCase) { d.Q.Where = slices.Delete(d.Q.Where, i, i+1) })
	}
	aggs := 0
	for _, it := range c.Q.Items {
		if it.Agg {
			aggs++
		}
	}
	for i, it := range c.Q.Items {
		// An aggregate goes while another stays; in a query without one, an
		// item goes with its ORDER BY key, which keeps the order total.
		try(it.Agg && aggs > 1 || aggs == 0 && len(c.Q.Items) > 1, func(d *planCase) {
			d.Q.Items = slices.Delete(d.Q.Items, i, i+1)
			d.Q.OrderBy = slices.DeleteFunc(d.Q.OrderBy, func(k string) bool { return k == it.name() })
		})
	}
	for i, j := range c.Q.Joins {
		rest := c.Q.clone()
		rest.Joins = slices.Delete(rest.Joins, i, i+1)
		used := regexp.MustCompile(`\b` + j.Table[:1] + `_`).MatchString(rest.SQL())
		try(!used, func(d *planCase) { d.Q.Joins = slices.Delete(d.Q.Joins, i, i+1) })
	}
	return out
}
