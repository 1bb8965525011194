package driver

import (
	"errors"
	"testing"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestChaosDriverS3CallsJoinTheBudget: the driver's own S3 calls run under the
// query's policy like its SQS, DynamoDB and Lambda calls do. The first GETs of
// a staged q12 are the driver's — it opens the plan's six files in one request
// window — so a plan that fails the first two fails the first open and its
// first retry. Report.DriverRetries counts both, and with a budget of one the
// second failure ends the query in a budget-spent ExhaustedError. (Built
// without the policy the driver's clients made up to ten unbudgeted,
// uncounted retries per call.)
func TestChaosDriverS3CallsJoinTheBudget(t *testing.T) {
	clean := runStagedChaosQ12(t, simulated(71), nil)
	mkChaos := func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 2, Rules: []faults.Rule{
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Count: 2},
		}})
	}
	run := runStagedChaosQ12(t, mkChaos, nil)
	chunksIdentical(t, run.out, clean.out)
	if run.rep.DriverRetries != 2 || run.rep.WorkerRetries != 0 {
		t.Errorf("retries: driver %d, workers %d; want the driver's 2 and none", run.rep.DriverRetries, run.rep.WorkerRetries)
	}
	if got := run.s3Requests - clean.s3Requests; got != 2 {
		t.Errorf("billed %d S3 requests more than the clean run, want the 2 failed tries", got)
	}

	spent := tryStagedChaosQ12(t, mkChaos, func(cfg *Config, _ *StageConfig) { cfg.RetryBudget = 1 })
	var ex *resilience.ExhaustedError
	if !errors.As(spent.err, &ex) || !ex.BudgetSpent || ex.Attempts != 2 {
		t.Fatalf("err = %v, want the budget-spent ExhaustedError of the open's second try", spent.err)
	}
	assertQueryClean(t, spent.sess, "q1")
}

// TestChaosUploadTableRetries: an upload goes through an S3 client under one
// policy for the whole table, so failed PUTs are retried and billed, traced
// as the client's s3.put op spans with their retries tagged, and a budget the
// table's files share turns a persistent failure into a typed error.
func TestChaosUploadTableRetries(t *testing.T) {
	upload := func(budget int) (*Deployment, *obs.Tracer, error) {
		k := simclock.New()
		dep := NewChaos(k, 71, faults.Plan{Rules: []faults.Rule{
			{Op: faults.OpS3Put, Kind: faults.KindTransient, Count: 1},
			{Op: faults.OpS3Put, Kind: faults.KindTransient, Skip: 2, Count: 1},
		}})
		tr := obs.New()
		dep.EnableTracing(tr)
		var err error
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.RetryBudget = budget
			d := NewSession(dep, cfg)
			tr.Bind(p, tr.StartSpan(obs.KindQuery, "setup", 0, p.Now()))
			li := tpch.Gen{SF: 0.001, Seed: 11}.Generate()
			_, err = d.UploadTable(p, "tpch", "lineitem", li, 2, lpq.WriterOptions{})
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return dep, tr, err
	}

	// PUTs 0 and 2 of the stream fail: the first try of each of the two files.
	dep, tr, err := upload(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Meter.Count(pricing.LabelS3Write); got != 4 {
		t.Errorf("billed %d writes, want 4 (2 files + 2 failed tries)", got)
	}
	spans := tr.Spans()[1:]
	if len(spans) != 2 {
		t.Fatalf("%d op spans, want one per file", len(spans))
	}
	for _, sp := range spans {
		if sp.Kind != obs.KindOp || sp.Name != "s3.put" || sp.Tags["retries"] != "1" || sp.Cost.S3Put != 2 {
			t.Errorf("span %+v, want an s3.put with one retry and two billed PUTs", sp)
		}
	}

	// One budget for the table: the first file's retry spends it, the second
	// file's failure has nothing left.
	_, _, err = upload(1)
	var ex *resilience.ExhaustedError
	if !errors.As(err, &ex) || !ex.BudgetSpent || ex.Op != "s3.put" {
		t.Fatalf("err = %v, want s3.put's budget-spent ExhaustedError", err)
	}
}
