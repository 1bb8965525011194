package driver

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

const q1SQL = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const q6SQL = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`

// localSetup installs Lambada on a functional deployment with uploaded data.
func localSetup(t *testing.T, cfg Config, sf float64, nfiles int) (*Session, simenv.Env, []scan.FileRef, *columnar.Chunk) {
	t.Helper()
	dep := NewLocal()
	env := simenv.NewImmediate()
	d := NewSession(dep, cfg)
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	data := tpch.Gen{SF: sf, Seed: 33}.Generate()
	refs, err := d.UploadTable(env, "tpch", "lineitem", data, nfiles, lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip})
	if err != nil {
		t.Fatal(err)
	}
	return d, env, refs, data
}

func TestEndToEndQ1Local(t *testing.T) {
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 8)
	out, rep, err := d.RunSQL(env, q1SQL, "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	ref := tpch.Q1Reference(data)
	if out.NumRows() != len(ref) {
		t.Fatalf("groups = %d, want %d", out.NumRows(), len(ref))
	}
	for i, r := range ref {
		if got := out.Column("sum_charge").Float64s[i]; math.Abs(got-r.SumCharge) > 1e-6*r.SumCharge {
			t.Errorf("row %d sum_charge = %v, want %v", i, got, r.SumCharge)
		}
		if got := out.Column("count_order").Int64s[i]; got != r.Count {
			t.Errorf("row %d count = %d, want %d", i, got, r.Count)
		}
		if got := out.Column("avg_disc").Float64s[i]; math.Abs(got-r.AvgDisc) > 1e-9 {
			t.Errorf("row %d avg_disc = %v, want %v", i, got, r.AvgDisc)
		}
	}
	if rep.Workers != 8 {
		t.Errorf("workers = %d, want 8 (F=1, 8 files)", rep.Workers)
	}
	// A single-scope query is a one-stage plan without a boundary: no epoch
	// fence, one stage in the report.
	if rep.Stages != 1 || rep.Epoch != 0 || len(rep.StageStats) != 1 || rep.StageStats[0].Workers != 8 {
		t.Errorf("stages = %d, epoch = %d, stage stats = %+v, want one unfenced 8-worker stage", rep.Stages, rep.Epoch, rep.StageStats)
	}
	assertQueryClean(t, d, rep.QueryID)
	if len(rep.WorkerProcessing) != 8 {
		t.Errorf("processing samples = %d", len(rep.WorkerProcessing))
	}
	if rep.TotalCost <= 0 {
		t.Error("query reported zero cost")
	}
	if rep.Cost.S3Get <= 0 {
		t.Error("no S3 read cost recorded")
	}
}

func TestEndToEndQ6Local(t *testing.T) {
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 8)
	out, _, err := d.RunSQL(env, q6SQL, "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	if got := out.Column("revenue").Float64s[0]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", got, want)
	}
}

func TestFilesPerWorkerControlsFleetSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilesPerWorker = 4
	d, env, refs, _ := localSetup(t, cfg, 0.002, 8)
	// Q1's predicate prunes no file (Q6's year would leave two of the eight).
	_, rep, err := d.RunSQL(env, q1SQL, "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2 {
		t.Errorf("workers = %d, want 2 (8 files / F=4)", rep.Workers)
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	d, env, refs, _ := localSetup(t, DefaultConfig(), 0.001, 2)
	// Corrupt a data page of one input object after upload, its footer
	// intact: the plan stands, the assigned worker fails at the page decode
	// and reports through the result queue (§3.3: "if an error occurred ...
	// the handler posts a corresponding message").
	store := d.Deployment().S3
	blob, _, err := store.Get(env, refs[1].Bucket, refs[1].Key)
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.Clone(blob)
	r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	cc := r.Meta().RowGroups[0].Columns[tpch.Schema().Index("l_quantity")]
	for i := cc.Offset; i < cc.Offset+cc.CompressedLen; i++ {
		blob[i] ^= 0xff
	}
	if err := store.Put(env, refs[1].Bucket, refs[1].Key, blob); err != nil {
		t.Fatal(err)
	}
	_, _, err = d.RunSQL(env, q1SQL, "lineitem", refs)
	if err == nil {
		t.Fatal("expected worker failure to propagate")
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Errorf("error %q does not identify the failing worker", err)
	}
	// A corrupt file is a data error no relaunch would fix: the failure is
	// typed, not retryable, and names the worker that read the file.
	var sf *StageFailure
	if !errors.As(err, &sf) || sf.Retryable || sf.Worker != 1 {
		t.Fatalf("err = %#v, want a non-retryable *StageFailure of worker 1", err)
	}
	assertQueryClean(t, d, sf.QueryID)

	// A corrupt footer never gets that far: the planner opens every file, so
	// it is the driver's open error, naming the object, and no worker runs.
	if err := store.Put(env, refs[1].Bucket, refs[1].Key, []byte("corrupted")); err != nil {
		t.Fatal(err)
	}
	d.InvalidateResultCache() // the session holds the old footer
	before, _ := d.Deployment().Lambda.Invocations()
	_, _, err = d.RunSQL(env, q1SQL, "lineitem", refs)
	if err == nil || errors.As(err, &sf) || !strings.Contains(err.Error(), refs[1].Key) {
		t.Errorf("err = %v, want the driver's open error naming %s", err, refs[1].Key)
	}
	if after, _ := d.Deployment().Lambda.Invocations(); after != before {
		t.Errorf("workers invoked despite the open error: %d -> %d", before, after)
	}
}

func TestPlanErrorCaughtBeforeInvocation(t *testing.T) {
	d, env, refs, _ := localSetup(t, DefaultConfig(), 0.001, 2)
	// Unknown columns are caught at driver-side optimization time — no
	// workers are invoked (and none billed).
	before, _ := d.Deployment().Lambda.Invocations()
	_, _, err := d.RunSQL(env, "SELECT SUM(no_such_column) AS s FROM lineitem", "lineitem", refs)
	if err == nil {
		t.Fatal("bad column accepted")
	}
	after, _ := d.Deployment().Lambda.Invocations()
	if after != before {
		t.Errorf("workers invoked despite plan error: %d -> %d", before, after)
	}
}

func TestEmptyFilesRejected(t *testing.T) {
	d, env, _, _ := localSetup(t, DefaultConfig(), 0.001, 1)
	if _, _, err := d.RunSQL(env, q6SQL, "lineitem", nil); err == nil {
		t.Error("no-files query accepted")
	}
}

func TestConsecutiveQueriesIsolated(t *testing.T) {
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 4)
	for i := 0; i < 3; i++ {
		out, rep, err := d.RunSQL(env, q6SQL, "lineitem", refs)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := tpch.Q6Reference(data)
		if got := out.Column("revenue").Float64s[0]; math.Abs(got-want) > 1e-6*want {
			t.Errorf("query %d: revenue drifted: %v != %v", i, got, want)
		}
		if rep.QueryID == "" {
			t.Error("missing query id")
		}
	}
}

func TestEndToEndDESDeterministic(t *testing.T) {
	// The same query on the DES deployment: exact result, virtual-time
	// latency, full cost accounting — and bit-identical across runs.
	run := func() (float64, time.Duration, float64, int) {
		k := simclock.New()
		dep := NewSimulated(k, 99)
		var revenue float64
		var dur time.Duration
		var cost float64
		var cold int
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			data := tpch.Gen{SF: 0.002, Seed: 12}.Generate()
			refs, err := d.UploadTable(p, "tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			out, rep, err := d.RunSQL(p, q6SQL, "lineitem", refs)
			if err != nil {
				t.Error(err)
				return
			}
			revenue = out.Column("revenue").Float64s[0]
			dur = rep.Duration
			cost = rep.TotalCost
			cold = rep.ColdWorkers
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return revenue, dur, cost, cold
	}
	r1, d1, c1, cold1 := run()
	r2, d2, c2, _ := run()
	if r1 != r2 || d1 != d2 || c1 != c2 {
		t.Errorf("DES runs not deterministic: (%v,%v,%v) vs (%v,%v,%v)", r1, d1, c1, r2, d2, c2)
	}
	data := tpch.Gen{SF: 0.002, Seed: 12}.Generate()
	want := tpch.Q6Reference(data)
	if math.Abs(r1-want) > 1e-6*want {
		t.Errorf("DES revenue = %v, want %v", r1, want)
	}
	if d1 <= 0 || d1 > time.Minute {
		t.Errorf("virtual duration = %v, want interactive range", d1)
	}
	if cold1 == 0 {
		t.Error("fresh function reported no cold starts")
	}
	if c1 <= 0 {
		t.Error("no cost recorded")
	}
}

func TestHotRunFasterThanCold(t *testing.T) {
	k := simclock.New()
	dep := NewSimulated(k, 4)
	var coldDur, hotDur time.Duration
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		d := NewSession(dep, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		data := tpch.Gen{SF: 0.002, Seed: 5}.Generate()
		refs, err := d.UploadTable(p, "tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		_, rep1, err := d.RunSQL(p, q6SQL, "lineitem", refs)
		if err != nil {
			t.Error(err)
			return
		}
		coldDur = rep1.Duration
		// Think time (usage model, Figure 2) — lets every container of the
		// cold run return to the warm pool.
		p.Sleep(30 * time.Second)
		_, rep2, err := d.RunSQL(p, q6SQL, "lineitem", refs)
		if err != nil {
			t.Error(err)
			return
		}
		hotDur = rep2.Duration
		// Run 1 is mostly cold; run 2 mostly warm. (A run-1 worker that
		// finishes before the fleet is fully launched is reused, so the
		// container pool can be one short of the fleet — exactly one cold
		// start may remain, as on real AWS.)
		if rep1.ColdWorkers < rep1.Workers-1 {
			t.Errorf("first run had only %d/%d cold workers", rep1.ColdWorkers, rep1.Workers)
		}
		if rep2.ColdWorkers > 1 {
			t.Errorf("second run had %d cold workers", rep2.ColdWorkers)
		}
	})
	k.Run()
	if hotDur >= coldDur {
		t.Errorf("hot run (%v) not faster than cold (%v)", hotDur, coldDur)
	}
}
