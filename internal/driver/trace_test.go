package driver

import (
	"bytes"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// tracedRun is one traced execution — staged q12, or single-scope q1.
type tracedRun struct {
	rep   *Report
	trace []byte // Chrome trace-event export
}

// tracedOpts parameterizes runTraced.
type tracedOpts struct {
	single  bool  // single-scope q1 over lineitem instead of staged q12
	chaos   bool  // seeded FaultPlan deployment instead of the clean one
	crash   bool  // workers dying mid-handler and on invoke instead
	flat    bool  // single-level exchange without write combining
	unkeyed bool  // disable completion-broadcast keying (regression baseline)
	seed    int64 // deployment seed; 0 is the suite's 71
}

// crashPlanQ12 kills workers: the second and third invocations die 120 ms
// into their handler — partial duration billed to the invocation span, op
// spans unwound without a Pop — and the fifth dies before its handler runs:
// an original of the three-stage plan's last fleet, so that its backup, the
// one re-invocation a worker gets, is not the invocation that is killed.
func crashPlanQ12() faults.Plan {
	return faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Skip: 1, Count: 2, Delay: 120 * time.Millisecond},
		{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: 4, Count: 1},
	}}
}

// runTraced executes the query with tracing enabled on a fresh DES kernel
// — the chaos harness plus EnableTracing — and exports the trace.
func runTraced(t *testing.T, o tracedOpts) tracedRun {
	t.Helper()
	k := simclock.New()
	if o.unkeyed {
		k.SetCompletionKeying(false)
	}
	if o.seed == 0 {
		o.seed = 71
	}
	var dep *Deployment
	switch {
	case o.chaos:
		dep = NewChaos(k, o.seed, chaosPlanQ12())
	case o.crash:
		dep = NewChaos(k, o.seed, crashPlanQ12())
	default:
		dep = NewSimulated(k, o.seed)
	}
	dep.EnableTracing(obs.New())
	var res tracedRun
	ok := false
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		cfg.Speculate = DefaultSpeculateConfig()
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		if o.crash {
			scfg.MaxStageWait = 30 * time.Second
		}
		if o.flat {
			scfg.ExchangeLevels = 1
			scfg.Exchange.Variant.WriteCombining = false
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 11}
		li := g.Generate()
		orders := g.OrdersFor(li)
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		var out *columnar.Chunk
		var rep *Report
		if o.single {
			out, rep, err = d.RunSQL(q1SQL, "lineitem", liRefs)
		} else {
			out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		}
		if err != nil {
			t.Error(err)
			return
		}
		if out.NumRows() == 0 {
			t.Error("empty result")
			return
		}
		res.rep = rep
		var buf bytes.Buffer
		if err := obs.ExportChromeTrace(&buf, rep.Trace.Spans()); err != nil {
			t.Error(err)
			return
		}
		res.trace = buf.Bytes()
		ok = true
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if !ok {
		t.FailNow()
	}
	return res
}

// TestTraceExportByteIdentical: two runs of the same seeded query — chaos
// plan included — export byte-identical Chrome traces, on both exchange
// variants and for a single-scope query. This is the observability determinism contract: the trace is
// a function of the seed, not of host scheduling.
func TestTraceExportByteIdentical(t *testing.T) {
	for name, o := range map[string]tracedOpts{
		"tree-wc": {chaos: true},
		"flat":    {chaos: true, flat: true},
		"single":  {chaos: true, single: true},
	} {
		t.Run(name, func(t *testing.T) {
			a := runTraced(t, o)
			b := runTraced(t, o)
			if !bytes.Equal(a.trace, b.trace) {
				t.Errorf("trace exports differ (%d vs %d bytes)", len(a.trace), len(b.trace))
			}
			if n, err := obs.ValidateChromeTrace(a.trace); err != nil || n == 0 {
				t.Errorf("exported trace invalid: %d events, %v", n, err)
			}
		})
	}
}

// TestTraceCostAttributionExact: the query's span subtree carries exactly
// what the meter moved over the query's window — every billed unit lands on
// exactly one span, none dropped, none double-counted — compared as one
// struct. Runs under the chaos plan (retries, duplicate delivery, throttles)
// and the crash plan (partial durations, op spans a panic unwound past), on
// both exchange variants, and for a single-scope query as well as the
// staged one: the same executor opens the same query → stage → invoke tree.
func TestTraceCostAttributionExact(t *testing.T) {
	for name, o := range map[string]tracedOpts{
		"clean":        {},
		"chaos":        {chaos: true},
		"chaos-flat":   {chaos: true, flat: true},
		"crash":        {crash: true},
		"clean-single": {single: true},
		"chaos-single": {single: true, chaos: true},
	} {
		t.Run(name, func(t *testing.T) {
			r := runTraced(t, o)
			if o.crash && r.rep.InjectedFaults[faults.OpLambda+"/"+string(faults.KindCrashMidRun)] != 2 {
				t.Errorf("injected faults = %v, want two workers crashed mid-run", r.rep.InjectedFaults)
			}
			traced := r.rep.Profile().Cost
			if traced != r.rep.Cost {
				t.Errorf("spans carry %+v\nmeter moved %+v", traced, r.rep.Cost)
			}
			if traced.LambdaMiBNs == 0 || traced.S3ReadBytes == 0 || traced.SQSRequests == 0 {
				t.Errorf("attribution is missing a whole service: %+v", traced)
			}
			if got, want := r.rep.TotalCost, float64(pricing.Price(traced)); got != want {
				t.Errorf("report total $%.15f, priced span cost $%.15f", got, want)
			}
		})
	}
}

// TestConcurrentQueriesPartitionTheMeter: two staged queries in flight at
// once on one traced session. Each Report.Cost window is deployment-wide
// and so holds some of the other query's spend, but the traced profiles
// partition the bill: what the meter moved across the pair equals the sum
// of the two Profile().Cost exactly — every billed unit lands on exactly
// one span even when windows overlap.
func TestConcurrentQueriesPartitionTheMeter(t *testing.T) {
	k := simclock.New()
	dep := NewSimulated(k, 71)
	dep.EnableTracing(obs.New())
	cfg := DefaultConfig()
	cfg.PollInterval = 50 * time.Millisecond
	r := runSessionConcurrentQ12(t, NewSession(dep, cfg), k, dep, 0, 2)
	if r.reps[0] == nil || r.reps[1] == nil {
		t.Fatal("a query produced no report")
	}
	a, b := r.reps[0].Profile().Cost, r.reps[1].Profile().Cost
	sum := a
	sum.Add(b)
	if sum != r.billed {
		t.Errorf("profiles sum to %+v\nmeter moved    %+v", sum, r.billed)
	}
	if a.IsZero() || b.IsZero() {
		t.Errorf("a query carries no cost: %+v / %+v", a, b)
	}
	if r.reps[0].Cost == a && r.reps[1].Cost == b {
		t.Error("the windows did not overlap: each Report.Cost equals its own profile")
	}
}

// TestCriticalPathSumsToDuration: the critical path tiles the query span,
// so its segment durations sum exactly to the report's end-to-end virtual
// latency.
func TestCriticalPathSumsToDuration(t *testing.T) {
	for _, single := range []bool{false, true} {
		r := runTraced(t, tracedOpts{single: single})
		p := r.rep.Profile()
		if p == nil {
			t.Fatalf("single=%v: traced report has no profile", single)
		}
		if len(p.CriticalPath) == 0 {
			t.Fatalf("single=%v: empty critical path", single)
		}
		var sum time.Duration
		for _, seg := range p.CriticalPath {
			sum += seg.Duration()
		}
		if sum != r.rep.Duration {
			t.Errorf("single=%v: critical path sums to %v, report duration %v", single, sum, r.rep.Duration)
		}
		// Per-stage profile sanity: every stage — the single-scope query's
		// one stage included — carries workers, rows and cost.
		if len(p.Stages) == 0 || len(p.Stages) != len(r.rep.StageStats) {
			t.Fatalf("single=%v: profile has %d stages, report %d", single, len(p.Stages), len(r.rep.StageStats))
		}
		for _, sp := range p.Stages {
			if sp.Attempts == 0 {
				t.Errorf("single=%v: stage %d: no traced attempts", single, sp.StageID)
			}
			if sp.Rows == 0 {
				t.Errorf("single=%v: stage %d: no output rows traced", single, sp.StageID)
			}
			if sp.Cost.IsZero() {
				t.Errorf("single=%v: stage %d: no attributed cost", single, sp.StageID)
			}
		}
	}
}

// TestKeyedBroadcastReducesWakeups is the satellite regression: keying the
// completion broadcast by (table,key)/prefix wakes strictly fewer waiters
// than the wake-everyone baseline on the same seeded query. The spurious
// wakeups are not free, either: each one re-runs the waiter's poll (a
// billed substrate call with virtual latency) — asserted as the mechanism,
// DynamoDB reads billed, on every seed. That the keyed run is therefore no
// slower is asserted over the seeds together: the two runs of one seed issue
// different request sequences, so they draw different latencies from the
// deployment's one seeded stream, and a single pair can differ by a few
// percent either way (seed 71 reads 1.094 s keyed against 1.072 s unkeyed).
func TestKeyedBroadcastReducesWakeups(t *testing.T) {
	var keyedSum, unkeyedSum time.Duration
	for seed := int64(71); seed < 76; seed++ {
		keyed := runTraced(t, tracedOpts{seed: seed})
		unkeyed := runTraced(t, tracedOpts{seed: seed, unkeyed: true})
		if keyed.rep.Wakeups == 0 {
			t.Fatalf("seed %d: keyed run recorded no wakeups (counter not wired?)", seed)
		}
		if keyed.rep.Wakeups >= unkeyed.rep.Wakeups {
			t.Errorf("seed %d: keying did not reduce wakeups: keyed %d, unkeyed %d",
				seed, keyed.rep.Wakeups, unkeyed.rep.Wakeups)
		}
		if keyed.rep.Cost.DynamoReads > unkeyed.rep.Cost.DynamoReads {
			t.Errorf("seed %d: keyed run polled more: %d DynamoDB reads, unkeyed %d",
				seed, keyed.rep.Cost.DynamoReads, unkeyed.rep.Cost.DynamoReads)
		}
		t.Logf("seed %d: keyed %v, %d wakeups, %d polls; unkeyed %v, %d wakeups, %d polls", seed,
			keyed.rep.Duration, keyed.rep.Wakeups, keyed.rep.Cost.DynamoReads,
			unkeyed.rep.Duration, unkeyed.rep.Wakeups, unkeyed.rep.Cost.DynamoReads)
		keyedSum += keyed.rep.Duration
		unkeyedSum += unkeyed.rep.Duration
	}
	if keyedSum > unkeyedSum {
		t.Errorf("keyed runs slower than the unkeyed baseline over five seeds: %v vs %v", keyedSum, unkeyedSum)
	}
}
