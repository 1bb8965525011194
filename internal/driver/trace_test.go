package driver

import (
	"bytes"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// tracedRun is one traced execution — staged q12, or single-scope q1 —
// plus the exact billed request counts the test window observed on the
// meter.
type tracedRun struct {
	rep   *Report
	trace []byte // Chrome trace-event export
	// Meter movement over the query (same window as the report's deltas).
	s3Gets, s3Puts, s3Lists  int64
	sqsReqs                  int64
	dynamoReads, dynamoWrite int64
	lambdaInvokes            int64
}

// tracedOpts parameterizes runTraced.
type tracedOpts struct {
	single  bool // single-scope q1 over lineitem instead of staged q12
	chaos   bool // seeded FaultPlan deployment instead of the clean one
	flat    bool // single-level exchange without write combining
	unkeyed bool // disable completion-broadcast keying (regression baseline)
}

// runTraced executes the query with tracing enabled on a fresh DES kernel
// — the chaos harness plus EnableTracing — and exports the trace.
func runTraced(t *testing.T, o tracedOpts) tracedRun {
	t.Helper()
	k := simclock.New()
	if o.unkeyed {
		k.SetCompletionKeying(false)
	}
	var dep *Deployment
	if o.chaos {
		dep = NewChaos(k, 71, chaosPlanQ12())
	} else {
		dep = NewSimulated(k, 71)
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
		if o.flat {
			scfg.Exchange.Variant.Levels = 1
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
		count := func(label string) int64 { return dep.Meter.Count(label) }
		before := map[string]int64{}
		for _, l := range []string{pricing.LabelS3Read, pricing.LabelS3Write, pricing.LabelS3List,
			pricing.LabelSQS, pricing.LabelDynamoRead, pricing.LabelDynamoWrite, pricing.LabelLambdaRequests} {
			before[l] = count(l)
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
		res.s3Gets = count(pricing.LabelS3Read) - before[pricing.LabelS3Read]
		res.s3Puts = count(pricing.LabelS3Write) - before[pricing.LabelS3Write]
		res.s3Lists = count(pricing.LabelS3List) - before[pricing.LabelS3List]
		res.sqsReqs = count(pricing.LabelSQS) - before[pricing.LabelSQS]
		res.dynamoReads = count(pricing.LabelDynamoRead) - before[pricing.LabelDynamoRead]
		res.dynamoWrite = count(pricing.LabelDynamoWrite) - before[pricing.LabelDynamoWrite]
		res.lambdaInvokes = count(pricing.LabelLambdaRequests) - before[pricing.LabelLambdaRequests]
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

// TestTraceCostAttributionExact: summing Cost over every span reproduces
// the meter movement of the query window exactly — every billed request
// lands on exactly one span, none are dropped, none double-counted. Runs
// under the chaos plan so retry, duplicate-delivery and crash paths are
// all exercised, and for a single-scope query as well as the staged one —
// the same executor opens the same query → stage → invoke tree for both.
func TestTraceCostAttributionExact(t *testing.T) {
	for _, o := range []tracedOpts{{}, {chaos: true}, {single: true}, {single: true, chaos: true}} {
		name := "clean"
		if o.chaos {
			name = "chaos"
		}
		if o.single {
			name += "-single"
		}
		t.Run(name, func(t *testing.T) {
			r := runTraced(t, o)
			total := obs.TotalCost(r.rep.Trace.Spans())
			checks := []struct {
				name  string
				spans int64
				meter int64
			}{
				{"s3 gets", total.S3Get, r.s3Gets},
				{"s3 puts", total.S3Put, r.s3Puts},
				{"s3 lists", total.S3List, r.s3Lists},
				{"s3 read bytes", total.S3ReadBytes, r.rep.S3ReadBytes},
				{"sqs requests", total.SQSRequests, r.sqsReqs},
				{"dynamo reads", total.DynamoReads, r.dynamoReads},
				{"dynamo writes", total.DynamoWrites, r.dynamoWrite},
				{"lambda invokes", total.LambdaInvokes, r.lambdaInvokes},
				{"lambda MiB·ns", total.LambdaMiBNs, r.rep.LambdaMiBNs},
			}
			for _, c := range checks {
				if c.spans != c.meter {
					t.Errorf("%s: spans %d, meter %d", c.name, c.spans, c.meter)
				}
			}
			// The report's own counters agree with the meter window.
			if r.rep.S3GetRequests != r.s3Gets {
				t.Errorf("report S3GetRequests %d, meter %d", r.rep.S3GetRequests, r.s3Gets)
			}
			// And the priced span total matches the report's billed total.
			if diff := float64(CostUSD(total)) - r.rep.TotalCost; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("priced span cost %.15f, report total %.15f", float64(CostUSD(total)), r.rep.TotalCost)
			}
		})
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
// billed substrate call with virtual latency), so the keyed run is also
// no slower than the baseline.
func TestKeyedBroadcastReducesWakeups(t *testing.T) {
	keyed := runTraced(t, tracedOpts{})
	unkeyed := runTraced(t, tracedOpts{unkeyed: true})
	if keyed.rep.Wakeups == 0 {
		t.Fatal("keyed run recorded no wakeups (counter not wired?)")
	}
	if keyed.rep.Wakeups >= unkeyed.rep.Wakeups {
		t.Errorf("keying did not reduce wakeups: keyed %d, unkeyed %d",
			keyed.rep.Wakeups, unkeyed.rep.Wakeups)
	}
	if keyed.rep.Duration > unkeyed.rep.Duration {
		t.Errorf("keyed run slower than unkeyed baseline: %v vs %v",
			keyed.rep.Duration, unkeyed.rep.Duration)
	}
}
