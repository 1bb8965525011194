package driver

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// The differential harness. A case is a query over the TPC-H fixture and the
// configuration it runs under; runCase runs it on DES, chaos or goroutine
// workers and holds it to single-node engine.Execute, to its own replay, and
// to an empty substrate afterwards. Its options — typed values, told apart
// by a type switch — pin what a caller knows of the plan: stage, worker and
// regroup counts, variants, launch gating, request inflation under faults.

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
	// Resident is a table the driver holds in memory and broadcasts;
	// Unregistered, one the query scans that nobody registered.
	Resident, Unregistered string
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
}

func (c planCase) String() string {
	s := fmt.Sprintf("layout %+v", c.Layout)
	for _, kv := range []struct {
		name string
		on   bool
		val  any
	}{
		{"resident", c.Resident != "", c.Resident}, {"unregistered", c.Unregistered != "", c.Unregistered},
		{"refused", c.Refused, true}, {"default stage config", c.Default, true},
		{"partitions", c.Partitions != 0, c.Partitions}, {"broadcast rows", c.BroadcastRowLimit != 0, c.BroadcastRowLimit},
		{"levels", c.Levels != 0, c.Levels}, {"basic", c.Basic, true}, {"max in flight", c.MaxInFlight != 0, c.MaxInFlight},
		{"speculate", c.Speculate, true}, {"faults", len(c.Faults.Rules) > 0, c.Faults}, {"goroutines", c.Goroutines, true},
	} {
		if kv.on {
			s += fmt.Sprintf(", %s %v", kv.name, kv.val)
		}
	}
	return s
}

func (c planCase) stageConfig() StageConfig {
	scfg := DefaultStageConfig()
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

// caseRun is one execution of a case.
type caseRun struct {
	out *columnar.Chunk
	rep *Report
	err error
	// invokes, s3 and sqs are the Lambda, S3 and SQS requests the query
	// billed; leak is the leak audit's finding.
	invokes, s3, sqs int64
	leak             error
	adm              *invoke.Admission
}

// run executes c once: fault-free when clean, through RunSQL when entrance.
func (c planCase) run(o []any, clean, entrance bool) (r caseRun, err error) {
	cfg := desConfig()
	cfg.MaxInFlight = c.MaxInFlight
	if c.Speculate {
		cfg.Speculate = DefaultSpeculateConfig()
	}
	for _, opt := range o {
		switch v := opt.(type) {
		case waveLaunch:
			cfg.testWaveLaunch = true
		case configure:
			v(&cfg)
		}
	}
	body := func(env simenv.Env, sess *Session, tables TableFiles) error {
		local := map[string]*columnar.Chunk{}
		if c.Resident != "" {
			local[c.Resident] = tpchData(c.Layout.Data).table(c.Resident)
			delete(tables, c.Resident)
		}
		delete(tables, c.Unregistered)
		m := sess.dep.Meter
		count := func() [3]int64 {
			return [3]int64{m.Count(pricing.LabelLambdaRequests), m.Count(pricing.LabelS3Read) + m.Count(pricing.LabelS3Write), m.Count(pricing.LabelSQS)}
		}
		before := count()
		if entrance {
			r.out, r.rep, r.err = sess.RunSQL(env, c.Q.SQL(), c.Q.From, tables[c.Q.From])
		} else {
			r.out, r.rep, r.err = sess.runSQL(env, c.Q.SQL(), tables, local, c.stageConfig())
		}
		after := count()
		r.invokes, r.s3, r.sqs = after[0]-before[0], after[1]-before[1], after[2]-before[2]
		return nil
	}
	var sess *Session
	if c.Goroutines {
		dep := NewLocal()
		dep.EnableTracing(obs.New())
		sess, err = onGoroutines(dep, cfg, c.Layout, body)
	} else {
		plan := c.Faults
		if clean {
			plan = faults.Plan{}
		}
		sess, err = onDES(func(k *simclock.Kernel) *Deployment {
			dep := NewChaos(k, 71+c.Seed, plan)
			dep.EnableTracing(obs.New())
			return dep
		}, cfg, c.Layout, func(p *simclock.Proc, sess *Session, tables TableFiles) error { return body(p, sess, tables) })
	}
	if err != nil {
		return r, err
	}
	r.leak, r.adm = queryLeaks(sess, "q1"), sess.Admission()
	return r, nil
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
		case a.invokes != 0:
			return nil, fmt.Errorf("a refused plan invoked %d workers", a.invokes)
		}
		return []string{"refused"}, a.leak
	}
	plan, err := sqlfe.Parse(c.Q.SQL())
	var want *columnar.Chunk
	if err == nil {
		want, err = engine.Execute(plan, tpchData(c.Layout.Data).catalog())
	}
	if err != nil {
		return nil, fmt.Errorf("the query does not run on a single node: %v", err)
	}
	if a.err != nil {
		return nil, fmt.Errorf("query failed: %w", a.err)
	}
	if err := sameRows(a.out, want, c.Tol); err != nil {
		return nil, fmt.Errorf("rows against single-node: %w", err)
	}
	if err := c.invariants(a, o); err != nil {
		return nil, err
	}

	// The replay: a second DES run must repeat the first to the row and the
	// nanodollar, and a query over one table must plan, run and bill alike
	// through either entrance.
	entrance := c.Default && len(c.Q.Joins) == 0
	if !c.Goroutines || entrance {
		b, err := c.run(o, false, entrance)
		switch {
		case err != nil:
			return nil, err
		case b.err != nil:
			return nil, fmt.Errorf("replay (RunSQL %t) failed: %w", entrance, b.err)
		case b.leak != nil:
			return nil, b.leak
		}
		if err := sameRows(b.out, a.out, 0); err != nil {
			return nil, fmt.Errorf("replay (RunSQL %t) rows: %w", entrance, err)
		}
		if b.rep.Workers != a.rep.Workers || b.rep.Stages != a.rep.Stages {
			return nil, fmt.Errorf("replay (RunSQL %t) ran %d workers in %d stages, the first run %d in %d", entrance, b.rep.Workers, b.rep.Stages, a.rep.Workers, a.rep.Stages)
		}
		if !c.Goroutines && (b.rep.Duration != a.rep.Duration || b.rep.Cost != a.rep.Cost) {
			return nil, fmt.Errorf("replay (RunSQL %t) took %v and billed %+v, the first run %v and %+v", entrance, b.rep.Duration, b.rep.Cost, a.rep.Duration, a.rep.Cost)
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
	return a.shapes(c), nil
}

// invariants holds one successful run to what every run owes, and to the
// plan shape the options pin.
func (c planCase) invariants(a caseRun, o []any) error {
	rep := a.rep
	if a.leak != nil {
		return a.leak
	}
	boundary := slices.ContainsFunc(rep.StageStats, func(ss StageStat) bool { return ss.Variant != "" })
	if want := map[bool]int{false: 0, true: 1}[boundary]; rep.Epoch != want {
		return fmt.Errorf("epoch %d with boundaries %t, want %d", rep.Epoch, boundary, want)
	}
	if len(rep.WorkerProcessing) != rep.Workers {
		return fmt.Errorf("%d winners' processing times for %d workers", len(rep.WorkerProcessing), rep.Workers)
	}
	if !c.Goroutines && rep.Profile().Cost != rep.Cost {
		return fmt.Errorf("spans carry %+v, the meter moved %+v", rep.Profile().Cost, rep.Cost)
	}
	if len(c.Faults.Rules) == 0 && len(rep.InjectedFaults) != 0 {
		return fmt.Errorf("no fault planned, %v injected", rep.InjectedFaults)
	}
	if adm := a.adm; adm != nil && len(c.Faults.Rules) == 0 && !c.Speculate && (adm.Peak() > c.MaxInFlight || adm.Overflow() != 0) {
		return fmt.Errorf("admission peak %d, overflow %d, over the cap %d", adm.Peak(), adm.Overflow(), c.MaxInFlight)
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
	if err := sameRows(a.out, clean.out, 0); err != nil {
		return fmt.Errorf("rows against the fault-free twin: %w", err)
	}
	switch {
	case len(a.rep.InjectedFaults) == 0 || a.rep.WorkerRetries == 0:
		return fmt.Errorf("injected %v, %d worker retries: want a storm the workers retried", a.rep.InjectedFaults, a.rep.WorkerRetries)
	case a.s3 < clean.s3 || a.s3 > 2*clean.s3:
		return fmt.Errorf("billed %d S3 requests, the fault-free twin %d: want within 2×", a.s3, clean.s3)
	case a.sqs > 4*clean.sqs:
		return fmt.Errorf("billed %d SQS requests, the fault-free twin %d: want within 4×", a.sqs, clean.sqs)
	}
	return nil
}

// shapes names the classes of plan a run of c exercised.
func (a caseRun) shapes(c planCase) []string {
	var out []string
	add := func(on bool, class string) {
		if on {
			out = append(out, class)
		}
	}
	sp := a.rep.Plan
	add(strings.HasPrefix(sp.Merge, "driver"), "aggregate merged on the driver")
	add(strings.HasPrefix(sp.Merge, "repartition"), "aggregate repartitioned")
	add(sp.Merge == "" && slices.ContainsFunc(sp.Stages, func(st *stageplan.Stage) bool { return len(st.Inputs) == 2 }), "bare shuffle join")
	add(slices.ContainsFunc(sp.Broadcast, func(t string) bool { return t != c.Resident }), "planner-chosen broadcast")
	add(slices.Contains(sp.Broadcast, c.Resident), "driver-resident broadcast")
	for _, v := range []string{"2l", "2l-wc"} {
		add(slices.ContainsFunc(a.rep.StageStats, func(ss StageStat) bool { return ss.Variant == v }), v+" boundary")
	}
	add(a.adm != nil && a.adm.Blocked() > 0, "admission cap")
	add(len(a.rep.InjectedFaults) > 0 && a.rep.FailureSeals+a.rep.Speculated > 0, "faults relaunched or speculated")
	add(c.Goroutines, "goroutine workers")
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
	try(c.Speculate, func(d *planCase) { d.Speculate = false })
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
		try(!used, func(d *planCase) {
			d.Q.Joins = slices.Delete(d.Q.Joins, i, i+1)
			if d.Resident == j.Table {
				d.Resident = ""
			}
		})
	}
	return out
}
