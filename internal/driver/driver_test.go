package driver

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// localLayout is the fixture of the goroutine-worker tests below: LINEITEM
// alone, gzipped.
var localLayout = layout{Data: 33, LI: 8, Opts: lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}}

// A single-scope query is a one-stage plan without a boundary: no epoch
// fence (checked by every case), one stage of one worker per file.
func TestEndToEndQ1Local(t *testing.T) {
	c := genCase(1)
	c.Layout, c.Goroutines = localLayout, true
	runCase(t, c, wantWorkers(8), wantStages(1))
}

func TestEndToEndQ6Local(t *testing.T) {
	c := genCase(2)
	c.Layout, c.Goroutines = localLayout, true
	runCase(t, c)
}

func TestEndToEndDESDeterministic(t *testing.T) {
	c := genCase(2)
	c.Layout = layout{Data: 12, LI: 6, Opts: lpq.WriterOptions{RowGroupRows: 2000}}
	runCase(t, c, wantStages(1))
}

// Q1's predicate prunes no file (Q6's year would leave two of the eight).
func TestFilesPerWorkerControlsFleetSize(t *testing.T) {
	c := genCase(1)
	c.Layout, c.Goroutines = localLayout, true
	runCase(t, c, configure(func(cfg *Config) { cfg.FilesPerWorker = 4 }), wantWorkers(2))
}

func TestWorkerErrorPropagates(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 2, Opts: localLayout.Opts})
	refs, store := tables["lineitem"], d.Deployment().S3
	// The plan stands, the assigned worker fails at the page decode and
	// reports through the result queue (§3.3: "if an error occurred ... the
	// handler posts a corresponding message").
	if err := corruptColumnChunk(env, store, refs[1], "l_quantity"); err != nil {
		t.Fatal(err)
	}
	_, _, err := d.RunSQL(env, q1SQL, "lineitem", refs)
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

// corruptColumnChunk flips every byte of column col's first chunk in a
// LINEITEM object, its footer intact: the planner opens the file as ever,
// and the worker that scans it fails at the page decode.
func corruptColumnChunk(env simenv.Env, store *s3.Service, ref scan.FileRef, col string) error {
	blob, _, err := store.Get(env, ref.Bucket, ref.Key)
	if err != nil {
		return err
	}
	blob = bytes.Clone(blob)
	r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return err
	}
	cc := r.Meta().RowGroups[0].Columns[tpch.Schema().Index(col)]
	for i := cc.Offset; i < cc.Offset+cc.CompressedLen; i++ {
		blob[i] ^= 0xff
	}
	return store.Put(env, ref.Bucket, ref.Key, blob)
}

// Unknown columns are caught at driver-side optimization time — no workers
// are invoked (and none billed).
func TestPlanErrorCaughtBeforeInvocation(t *testing.T) {
	runCase(t, planCase{Q: sqlQuery{Items: []selItem{agg("SUM(no_such_column)", "s")}, From: "lineitem"},
		Layout: localLayout, Refused: true, Goroutines: true})
	runCase(t, planCase{Q: sqlQuery{Items: []selItem{agg("COUNT(*)", "n")}, From: "lineitem", Where: []string{"no_such_column > 1"}},
		Layout: localLayout, Refused: true, Goroutines: true})
}

// The executor paces every driver-side Invoke — a query's own pacer and a
// capped session's shared one alike — at the requester pool's rate, Table 1's
// concurrent one.
func TestExecutorPacesAtTheRequesterPool(t *testing.T) {
	want := invoke.DriverPacing(netmodel.RegionEU, invoke.RequesterThreads)
	for _, capacity := range []int{0, 4} {
		cfg := DefaultConfig()
		cfg.MaxInFlight = capacity
		q := NewSession(NewLocal(), cfg).newQuery(simenv.NewImmediate())
		if got := q.adm.Pacing(); got != want {
			t.Errorf("MaxInFlight %d: pacing %+v, want %+v", capacity, got, want)
		}
		q.close()
	}
}

func TestEmptyFilesRejected(t *testing.T) {
	d, env, _ := goSession(t, DefaultConfig(), localLayout)
	if _, _, err := d.RunSQL(env, q6SQL, "lineitem", nil); err == nil {
		t.Error("no-files query accepted")
	}
}

func TestConsecutiveQueriesIsolated(t *testing.T) {
	l := localLayout
	l.LI = 4
	d, env, tables := goSession(t, DefaultConfig(), l)
	want := singleNode(t, q6SQL, tpchData(l.Data).catalog())
	for i := 0; i < 3; i++ {
		out, rep, err := d.RunSQL(env, q6SQL, "lineitem", tables["lineitem"])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if err := sameRows(out, want, 1e-9); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		if rep.QueryID == "" {
			t.Error("missing query id")
		}
	}
}

func TestHotRunFasterThanCold(t *testing.T) {
	var rep1, rep2 *Report
	_, err := onDES(simulated(4), desConfig(), layout{Data: 5, LI: 6, Opts: lpq.WriterOptions{RowGroupRows: 2000}}, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		_, r, err := d.RunSQL(p, q6SQL, "lineitem", tables["lineitem"])
		if err != nil {
			return err
		}
		// Think time (usage model, Figure 2) — lets every container of the
		// cold run return to the warm pool.
		p.Sleep(30 * time.Second)
		rep1 = r
		_, rep2, err = d.RunSQL(p, q6SQL, "lineitem", tables["lineitem"])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 1 is mostly cold; run 2 mostly warm. (A run-1 worker that finishes
	// before the fleet is fully launched is reused, so the container pool can
	// be one short of the fleet — exactly one cold start may remain, as on
	// real AWS.)
	if rep1.ColdWorkers < rep1.Workers-1 {
		t.Errorf("first run had only %d/%d cold workers", rep1.ColdWorkers, rep1.Workers)
	}
	if rep2.ColdWorkers > 1 {
		t.Errorf("second run had %d cold workers", rep2.ColdWorkers)
	}
	if rep2.Duration >= rep1.Duration {
		t.Errorf("hot run (%v) not faster than cold (%v)", rep2.Duration, rep1.Duration)
	}
}
