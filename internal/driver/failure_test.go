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
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestQuerySurvivesThrottling runs a query against an S3 service with tight
// per-bucket rate limits: workers hit SlowDown, back off, retry, and the
// query still answers correctly (§5.5 footnote: "aggressive timeouts and
// retries are necessary").
func TestQuerySurvivesThrottling(t *testing.T) {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	cfg := s3.DefaultAWSConfig(meter, 3)
	cfg.ReadsPerSecond = 40 // brutal: ~7 workers × dozens of requests
	cfg.WritesPerSecond = 40
	dep := &Deployment{
		S3:            s3.New(cfg),
		Lambda:        lambdasvc.New(lambdasvc.DefaultAWSConfig(meter, 4), lambdasvc.SimRuntime{K: k}),
		SQS:           newSQSFor(meter),
		Dynamo:        nil,
		Meter:         meter,
		Net:           defaultNet(),
		Deterministic: true,
		Shaped:        true,
	}
	var revenue float64
	var dur time.Duration
	k.Go("driver", func(p *simclock.Proc) {
		dcfg := DefaultConfig()
		dcfg.PollInterval = 100 * time.Millisecond
		d := New(dep, p, dcfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		data := tpch.Gen{SF: 0.002, Seed: 31}.Generate()
		refs, err := d.UploadTable("tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		out, rep, err := d.RunSQL(q6SQL, "lineitem", refs)
		if err != nil {
			t.Errorf("query failed under throttling: %v", err)
			return
		}
		revenue = out.Column("revenue").Float64s[0]
		dur = rep.Duration
	})
	k.Run()
	want := tpch.Q6Reference(tpch.Gen{SF: 0.002, Seed: 31}.Generate())
	if math.Abs(revenue-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", revenue, want)
	}
	// Throttling shows up as time, not as wrong answers.
	if dur < 500*time.Millisecond {
		t.Errorf("throttled query finished suspiciously fast: %v", dur)
	}
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
		S3:            s3.New(s3.Config{Meter: meter}),
		Lambda:        lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k}),
		SQS:           newSQSFor(meter),
		Meter:         meter,
		Net:           defaultNet(),
		Deterministic: true,
	}
	var err error
	k.Go("driver", func(p *simclock.Proc) {
		dcfg := DefaultConfig()
		dcfg.TreeInvoke = false
		d := New(dep, p, dcfg)
		if e := d.Install(); e != nil {
			t.Error(e)
			return
		}
		data := tpch.Gen{SF: 0.002, Seed: 5}.Generate()
		refs, e := d.UploadTable("tpch", "lineitem", data, 10, lpq.WriterOptions{RowGroupRows: 2000})
		if e != nil {
			t.Error(e)
			return
		}
		// 10 workers (Q1's predicate prunes no file) against a limit of 3: the
		// launch must fail loudly.
		_, _, err = d.RunSQL(q1SQL, "lineitem", refs)
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
	d, _, _ := localSetup(t, cfg, 0.001, 1)
	// Rebuild the table with one huge row group so a single chunk exceeds
	// the worker's engine budget.
	data := tpch.Gen{SF: 0.02, Seed: 3}.Generate() // ~120k rows ≈ 12 MB chunks
	refs, err := d.UploadTable("big", "lineitem", data, 1, lpq.WriterOptions{RowGroupRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = d.RunSQL("SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs)
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
	d, _, _ := localSetup(t, DefaultConfig(), 0.001, 1)
	data := tpch.Gen{SF: 0.02, Seed: 3}.Generate()
	refs, err := d.UploadTable("big", "lineitem", data, 1, lpq.WriterOptions{RowGroupRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := d.RunSQL("SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs)
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

func defaultNet() netmodel.LambdaNet { return netmodel.DefaultLambdaNet() }
