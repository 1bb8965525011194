package driver

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/sqs"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestQuerySurvivesThrottling runs a query against an S3 service with tight
// per-bucket rate limits: workers hit SlowDown, back off, retry, and the
// query still answers correctly (§5.5 footnote: "aggressive timeouts and
// retries are necessary"). Throttling shows up as time, not as wrong
// answers: the throttled run retries, and takes longer than an unthrottled run
// of the same query and seed. The bound is relative, not absolute: an
// absolute one encodes whatever the barriers happened to waste — a limit of
// 40 requests a second never bit q6's two workers, and the run still cleared
// 500 ms only by a wake-up the driver's result loop lost. So is the rate: a
// fixed 8 reads a second stopped biting once each row group was one GET. It
// is taken from the unthrottled run's own GETs instead. That run lasts under
// a second, so its GETs fall in at most two of the limiter's one-second
// windows, and a throttled run that never throttled would be the same run:
// under half its GETs a second must throttle it.
func TestQuerySurvivesThrottling(t *testing.T) {
	run := func(rate float64) *Report {
		k := simclock.New()
		meter := pricing.NewCostMeter()
		cfg := s3.DefaultAWSConfig(meter, 3)
		// Reads alone: q6 writes nothing to S3, and throttled uploads would
		// draw latencies the unthrottled run does not.
		cfg.ReadsPerSecond = rate
		dep := &Deployment{
			S3:     s3.New(cfg),
			Lambda: lambdasvc.New(lambdasvc.DefaultAWSConfig(meter, 4), lambdasvc.SimRuntime{K: k}),
			SQS:    newSQSFor(meter),
			Dynamo: nil,
			Meter:  meter,
			Shaped: true,
		}
		var revenue float64
		var rep *Report
		k.Go("driver", func(p *simclock.Proc) {
			dcfg := DefaultConfig()
			dcfg.PollInterval = 100 * time.Millisecond
			d := NewSession(dep, dcfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			data := tpch.Gen{SF: 0.002, Seed: 31}.Generate()
			refs, err := d.UploadTable(p, "tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			out, r, err := d.RunSQL(p, q6SQL, "lineitem", refs)
			if err != nil {
				t.Errorf("query failed at %v requests/s: %v", rate, err)
				return
			}
			revenue, rep = out.Column("revenue").Float64s[0], r
		})
		k.Run()
		want := tpch.Q6Reference(tpch.Gen{SF: 0.002, Seed: 31}.Generate())
		if math.Abs(revenue-want) > 1e-6*want {
			t.Errorf("revenue at %v requests/s = %v, want %v", rate, revenue, want)
		}
		if rep == nil {
			t.FailNow()
		}
		return rep
	}
	clean := run(0)
	if clean.Duration >= time.Second {
		t.Fatalf("the unthrottled run took %v: its GETs may span more than two one-second windows", clean.Duration)
	}
	rate := float64((clean.Cost.S3Get - 1) / 2)
	if rate < 1 {
		t.Fatalf("the unthrottled run billed %d GETs: too few to throttle", clean.Cost.S3Get)
	}
	throttled := run(rate)
	if throttled.DriverRetries+throttled.WorkerRetries == 0 {
		t.Error("no request was retried: the rate limit never bit")
	}
	if throttled.Duration <= clean.Duration {
		t.Errorf("throttled query took %v, no longer than the unthrottled %v", throttled.Duration, clean.Duration)
	}
	t.Logf("unthrottled %v, %d GETs; throttled at %v reads/s %v, %d driver and %d worker retries",
		clean.Duration, clean.Cost.S3Get, rate, throttled.Duration, throttled.DriverRetries, throttled.WorkerRetries)
}

// TestConcurrencyLimitRejectsInvocations verifies the fleet launch surfaces
// the Lambda concurrency limit (the paper had to raise it via support
// ticket for >1k workers).
func TestConcurrencyLimitRejectsInvocations(t *testing.T) {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	lcfg := lambdasvc.DefaultAWSConfig(meter, 1)
	lcfg.ConcurrencyLimit = 3
	dep := &Deployment{
		S3:     s3.New(s3.Config{Meter: meter}),
		Lambda: lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k}),
		SQS:    newSQSFor(meter),
		Meter:  meter,
	}
	var err error
	k.Go("driver", func(p *simclock.Proc) {
		d := NewSession(dep, DefaultConfig())
		if e := d.Install(); e != nil {
			t.Error(e)
			return
		}
		data := tpch.Gen{SF: 0.002, Seed: 5}.Generate()
		refs, e := d.UploadTable(p, "tpch", "lineitem", data, 10, lpq.WriterOptions{RowGroupRows: 2000})
		if e != nil {
			t.Error(e)
			return
		}
		// 10 workers (Q1's predicate prunes no file) against a limit of 3: the
		// launch must fail loudly.
		_, _, err = d.RunSQL(p, q1SQL, "lineitem", refs)
	})
	k.Run()
	if !errors.Is(err, lambdasvc.ErrTooManyRequests) {
		t.Errorf("err = %v, want concurrency-limit rejection", err)
	}
}

// TestWorkerOOMReported gives workers far too little memory for the row
// groups they must materialize; the engine reports OOM through the result
// queue instead of dying silently (§3.3).
func TestWorkerOOMReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkerMemoryMiB = 192 // budget after headroom: ~1 MiB
	d, env, _ := goSession(t, cfg, layout{})
	// Rebuild the table with one huge row group so a single chunk exceeds
	// the worker's engine budget.
	data := tpch.Gen{SF: 0.02, Seed: 3}.Generate() // ~120k rows ≈ 12 MB chunks
	refs, err := d.UploadTable(env, "big", "lineitem", data, 1, lpq.WriterOptions{RowGroupRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = d.RunSQL(env, "SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs)
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("error %q does not mention OOM", err)
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Errorf("error %q does not identify the worker", err)
	}
}

// TestBigWorkerHandlesSameInput: the identical input succeeds on a
// full-size worker — the OOM above is a function of worker memory, not a
// data defect.
func TestBigWorkerHandlesSameInput(t *testing.T) {
	d, env, _ := goSession(t, DefaultConfig(), layout{})
	data := tpch.Gen{SF: 0.02, Seed: 3}.Generate()
	refs, err := d.UploadTable(env, "big", "lineitem", data, 1, lpq.WriterOptions{RowGroupRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := d.RunSQL(env, "SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Column("n").Int64s[0]; got != int64(data.NumRows()) {
		t.Errorf("count = %d, want %d", got, data.NumRows())
	}
}

// Test helpers constructing partial deployments.

func newSQSFor(meter *pricing.CostMeter) *sqs.Service {
	return sqs.New(sqs.DefaultAWSConfig(meter, 2))
}

// TestFailureStopsTheLaunchPass: a query fails while a concurrent DES launch
// pass is still invoking a fleet. LINEITEM's worker 1 reads a corrupt column
// chunk behind valid footers, held back until its stage's worker 0 and
// ORDERS' worker have won and the 128-worker join fleet is launching, one
// single-worker unit at a time under a cap it never reaches. Its failure
// stops the pass at its next unit, and the loop waits for the pass to exit
// before it returns the StageFailure: the join fleet is launched in part, no
// Invoke follows the start of cleanup, and the query leaves nothing behind.
func TestFailureStopsTheLaunchPass(t *testing.T) {
	// failAfter lands the failure seal at 987 ms, mid-way through the join
	// fleet's launch (688 ms to about 1.12 s, a unit every 3.4 ms).
	const joinWorkers, failAfter = 128, 400 * time.Millisecond
	cfg := desConfig()
	cfg.MaxInFlight = 2 * joinWorkers
	cfg.testWorkerDelay = func(stage, worker, _ int) time.Duration {
		if stage != 0 && worker == 1 { // LINEITEM's second file: ORDERS has one
			return failAfter
		}
		return 0
	}
	// The join workers launched wait for a LINEITEM seal that never comes:
	// they give up after two seconds, not ten minutes.
	scfg := shuffled(joinWorkers)
	scfg.Exchange.MaxWait = 2 * time.Second
	tr := obs.New()
	var qerr error
	sess, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 5)
		dep.EnableTracing(tr)
		return dep
	}, cfg, layout{Data: 33, LI: 2, Ord: 1, Opts: lpq.WriterOptions{RowGroupRows: 2000}}, func(p *simclock.Proc, sess *Session, tables TableFiles) error {
		if err := corruptColumnChunk(p, sess.dep.S3, tables["lineitem"][1], "l_receiptdate"); err != nil {
			return err
		}
		_, _, qerr = sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sf *StageFailure
	if !errors.As(qerr, &sf) || sf.Retryable || sf.Worker != 1 {
		t.Fatalf("err = %v, want a non-retryable *StageFailure of worker 1", qerr)
	}
	cleanup := time.Duration(-1)
	for _, s := range tr.Spans() {
		if s.Kind == obs.KindPhase && s.Name == "cleanup" {
			cleanup = s.Start
		}
	}
	joined, late := 0, 0
	for _, s := range tr.Spans() {
		if s.Kind != obs.KindInvoke {
			continue
		}
		if s.Tags["stage"] == "0" {
			joined++
		}
		if s.Start > cleanup {
			late++
		}
	}
	switch {
	case cleanup < 0:
		t.Error("the failed query never began its cleanup")
	case late > 0:
		t.Errorf("%d Invokes after cleanup began at %v", late, cleanup)
	case joined == 0 || joined >= joinWorkers:
		t.Errorf("%d of the %d join workers invoked: want the pass stopped mid-launch (or retune failAfter)", joined, joinWorkers)
	}
	assertQueryClean(t, sess, sf.QueryID)
}
