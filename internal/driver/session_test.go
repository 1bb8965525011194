package driver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestDeterministicMeansNoHostThreads: a worker starts no host thread on
// either deployment — the scan has none to switch off, and no setting — so a
// session keeps its Config as given on a DES deployment and on goroutine
// workers alike: the two run the same worker code and differ only in runtime
// and clock.
func TestDeterministicMeansNoHostThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speculate, cfg.RetryBudget, cfg.ResultCacheEntries = true, 3, 2
	for name, dep := range map[string]*Deployment{
		"simulated": NewSimulated(simclock.New(), 1),
		"local":     NewLocal(),
	} {
		if got := NewSession(dep, cfg).cfg; !reflect.DeepEqual(got, cfg) {
			t.Errorf("%s session runs with %+v, want %+v", name, got, cfg)
		}
	}
}

// TestEmptyTableIsOneFile: an empty relation uploads as one empty lpq file,
// so a query over it answers as SQL does — COUNT(*) is one row, 0, and a
// GROUP BY has no rows — instead of failing on a table without files.
func TestEmptyTableIsOneFile(t *testing.T) {
	sess := NewSession(NewLocal(), DefaultConfig())
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	env := simenv.NewImmediate()
	refs, err := sess.UploadTable(env, "tpch", "lineitem", columnar.NewChunk(tpch.Schema(), 0), 4, lpq.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("empty relation uploaded as %d files, want 1", len(refs))
	}
	out, _, err := sess.RunSQL(env, "SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column("n").Int64s[0] != 0 {
		t.Errorf("COUNT(*) over an empty table = %d rows %v, want one row, 0", out.NumRows(), out.Column("n"))
	}
	out, _, err = sess.RunSQL(env, "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag", "lineitem", refs)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Errorf("GROUP BY over an empty table = %d rows, want 0", out.NumRows())
	}
}

// TestPerQueryQueueTeardown: each query collects on a private queue derived
// from the base name, deleted at query end — the deployment does not
// accumulate queues, and a zombie posting after teardown gets
// ErrNoSuchQueue rather than poisoning a later query.
func TestPerQueryQueueTeardown(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), stdLayout)
	if _, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, shuffled(2)); err != nil {
		t.Fatal(err)
	}
	q1 := queryQueueName(d.cfg.ResultQueue, "q1")
	if err := d.dep.SQS.Send(env, q1, []byte("{}")); !errors.Is(err, sqs.ErrNoSuchQueue) {
		t.Errorf("zombie post to %s after teardown: err = %v, want ErrNoSuchQueue", q1, err)
	}
	// The base queue survives — it seeds the next query's derived name.
	if err := d.dep.SQS.Send(env, d.cfg.ResultQueue, []byte("{}")); err != nil {
		t.Errorf("base queue gone after query teardown: %v", err)
	}
}

// TestSessionResultCache: a repeated staged query is served from the result
// cache — byte-identical to the first run, no workers invoked — and both
// invalidation paths (by table, and the implicit clear on re-upload) force
// a fresh run.
func TestSessionResultCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResultCacheEntries = 4
	sess, env, tables := goSession(t, cfg, stdLayout)
	liRefs, data := tables["lineitem"], tpchData(stdLayout.Data)
	scfg := shuffled(2)

	out1, rep1, err := sess.RunSQLStaged(env, q12ExactSQL, tables, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHit {
		t.Error("first run reported a cache hit")
	}
	out2, rep2, err := sess.RunSQLStaged(env, q12ExactSQL, tables, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit {
		t.Error("second run missed the cache")
	}
	if rep2.Workers != 0 {
		t.Errorf("cache hit invoked %d workers", rep2.Workers)
	}
	chunksIdentical(t, out2, out1)
	if hits, misses := sess.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	sess.InvalidateTable("lineitem")
	if _, rep3, err := sess.RunSQLStaged(env, q12ExactSQL, tables, scfg); err != nil {
		t.Fatal(err)
	} else if rep3.CacheHit {
		t.Error("run after InvalidateTable still hit the cache")
	}

	// Re-uploading a table overwrites objects in place under the same file
	// references, so the upload clears the cache wholesale.
	if _, err := sess.UploadTable(env, "tpch", "lineitem", data.lineitem, 4, stdLayout.Opts); err != nil {
		t.Fatal(err)
	}
	if _, rep4, err := sess.RunSQLStaged(env, q12ExactSQL, tables, scfg); err != nil {
		t.Fatal(err)
	} else if rep4.CacheHit {
		t.Error("run after re-upload still hit the cache")
	}

	// The cache is the one entrance's, whichever shim reaches it: a repeated
	// RunSQL hits.
	if _, _, err := sess.RunSQL(env, q6SQL, "lineitem", liRefs); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := sess.RunSQL(env, q6SQL, "lineitem", liRefs); err != nil || !rep.CacheHit {
		t.Errorf("repeated RunSQL: hit = %v, err = %v, want a cache hit", rep != nil && rep.CacheHit, err)
	}

	// A query whose small ORDERS the planner broadcasts answers as the
	// shuffled one did, and is cached like any other: the key is the plan
	// and its files, not the stage config.
	sess.InvalidateTable("orders")
	for i := 0; i < 2; i++ {
		out, rep, err := sess.RunSQLStaged(env, q12ExactSQL, tables, DefaultStageConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit != (i == 1) {
			t.Errorf("broadcast run %d: hit = %v, want %v", i, rep.CacheHit, i == 1)
		}
		if i == 0 && rep.Stages != 1 {
			t.Errorf("fresh run ran %d stages, want 1: the join broadcast", rep.Stages)
		}
		chunksIdentical(t, out, out1)
	}

	// Eviction is least-recently-used: a query hit between each of
	// ResultCacheEntries later inserts is still cached after them all (first
	// in, first out would drop it at the last insert).
	for i := 0; i < cfg.ResultCacheEntries; i++ {
		other := fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < %d", 10+i)
		if _, rep, err := sess.RunSQL(env, other, "lineitem", liRefs); err != nil || rep.CacheHit {
			t.Fatalf("insert %d: hit = %v, err = %v, want a fresh run", i, rep != nil && rep.CacheHit, err)
		}
		if _, rep, err := sess.RunSQL(env, q6SQL, "lineitem", liRefs); err != nil || !rep.CacheHit {
			t.Fatalf("q6 after %d later inserts: hit = %v, err = %v, want a cache hit", i+1, rep != nil && rep.CacheHit, err)
		}
	}
}

// launchMatrixSQL aggregates integers only, so the fleet's merged answer is
// bit-identical to a single node's whatever the worker count.
const launchMatrixSQL = `
SELECT l_returnflag, COUNT(*) AS n, SUM(l_linenumber) AS lines, MAX(l_shipdate) AS last_ship
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`

// warmStarts is NewChaos's deployment, traced, with no cold-start delay.
// invoke.UseTree weighs the tree's extra worker generation at the mean cold
// start, so at the calibrated 250 ms only a fleet of about 130 workers or more
// goes through the tree; with none, a fleet of 25 or more does.
func warmStarts(seed int64, plan faults.Plan) func(*simclock.Kernel) *Deployment {
	return func(k *simclock.Kernel) *Deployment {
		dep := NewChaos(k, seed, plan)
		lcfg := lambdasvc.DefaultAWSConfig(dep.Meter, seed+1)
		lcfg.ColdStart, lcfg.Faults = nil, dep.Faults
		dep.Lambda = lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k})
		dep.EnableTracing(obs.New())
		return dep
	}
}

// driverInvokes counts the invocations in spans that the driver issued: every
// one but a tree child, whose span hangs under its parent worker's spawn
// phase.
func driverInvokes(spans []obs.Span) int {
	n := 0
	for _, s := range spans {
		if s.Kind == obs.KindInvoke && (s.Parent == 0 || spans[s.Parent-1].Kind != obs.KindPhase) {
			n++
		}
	}
	return n
}

// TestLaunchMatrix drives the one launch loop through every kind of unit it
// builds: fleets on both sides of the tree's crossover on a session without a
// cap (tree units of 1+children tokens where the policy picks the tree),
// under a cap the fleet overruns (single-worker units, partial launches
// resumed from the event loop) and under one it fits. Every worker is invoked
// exactly once, the admission peak respects the cap, the result is the single
// node's, and nothing is left behind.
//
// The deployment starts containers without a cold-start delay (warmStarts),
// which puts the crossover between the 17- and the 32-worker fleet: at Table
// 1's eu rates the tree starts 17 workers in 5 × 3.4 ms + 18 ms + 3 × 12.3 ms
// ≈ 72 ms against 17 × 3.4 ms ≈ 58 ms from the driver's pool, and 32 in
// 6 × 3.4 ms + 18 ms + 5 × 12.3 ms ≈ 100 ms against ≈ 109 ms. So the
// uncapped 32-worker fleet must be launched by ⌈√32⌉ = 6 driver-side
// Invokes, and every other cell by one Invoke per worker.
func TestLaunchMatrix(t *testing.T) {
	want := singleNode(t, launchMatrixSQL, tpchData(33).catalog())
	for _, fleet := range []int{1, 3, 4, 17, 32} {
		for _, maxInFlight := range []int{0, 2, 32} {
			cfg := desConfig()
			cfg.MaxInFlight = maxInFlight
			var out *columnar.Chunk
			var rep *Report
			sess, err := onDES(warmStarts(71, faults.Plan{}), cfg, layout{Data: 33, LI: fleet, Opts: stdLayout.Opts}, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
				out, rep, err = sess.RunSQL(p, launchMatrixSQL, "lineitem", tables["lineitem"])
				return err
			})
			if err != nil {
				t.Fatalf("fleet %d cap %d: %v", fleet, maxInFlight, err)
			}
			dep := sess.dep
			chunksIdentical(t, out, want)
			invoked, _ := dep.Lambda.Invocations()
			if rep.Workers != fleet || invoked != int64(fleet) || len(rep.WorkerProcessing) != fleet {
				t.Errorf("fleet %d cap %d: %d workers, %d invocations, %d seals — want %d of each",
					fleet, maxInFlight, rep.Workers, invoked, len(rep.WorkerProcessing), fleet)
			}
			wantDriverSide := fleet
			if maxInFlight == 0 && fleet == 32 {
				wantDriverSide = 6
			}
			if got := driverInvokes(rep.Trace.Spans()); got != wantDriverSide {
				t.Errorf("fleet %d cap %d: %d driver-side Invokes, want %d", fleet, maxInFlight, got, wantDriverSide)
			}
			adm := sess.Admission()
			if (adm != nil) != (maxInFlight > 0) {
				t.Fatalf("cap %d: session admission = %v", maxInFlight, adm)
			}
			if adm != nil {
				if adm.Peak() > maxInFlight || adm.Acquired() != uint64(fleet) {
					t.Errorf("fleet %d cap %d: admission peak %d, acquired %d",
						fleet, maxInFlight, adm.Peak(), adm.Acquired())
				}
				if held := adm.Blocked() > 0; held != (fleet > maxInFlight) {
					t.Errorf("fleet %d cap %d: blocked %d times", fleet, maxInFlight, adm.Blocked())
				}
			}
			assertQueryClean(t, sess, rep.QueryID)
		}
	}
}
