package driver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// TestDeterministicMeansNoHostThreads: a worker starts no host thread on
// either deployment — the scan has none to switch off — so a session leaves
// the scan configuration as given on a DES deployment and on goroutine
// workers alike: the two run the same worker code and differ only in runtime
// and clock.
func TestDeterministicMeansNoHostThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scan.DoubleBuffer, cfg.Scan.ParallelColumns, cfg.Scan.MetaPrefetch = true, true, true
	cfg.Scan.ParallelFiles, cfg.Scan.CoalesceGapBytes, cfg.Scan.DisableLateMaterialize = 4, 1<<10, true
	for name, dep := range map[string]*Deployment{
		"simulated": NewSimulated(simclock.New(), 1),
		"local":     NewLocal(),
	} {
		if got := NewSession(dep, cfg).Config().Scan; got != cfg.Scan {
			t.Errorf("%s session scans with %+v, want %+v", name, got, cfg.Scan)
		}
	}
}

// sessionRun captures everything one concurrent-session DES run exposes for
// the acceptance assertions: per-query results and reports, the virtual end
// time, and the epoch fence rows the queries left behind.
type sessionRun struct {
	outs   []*columnar.Chunk
	reps   []*Report
	epochs map[string]int
	vend   time.Duration
	// billed is what the meter moved from the first query's start until the
	// last had returned.
	billed obs.Cost
}

// runSessionConcurrentQ12 runs K staged q12 queries CONCURRENTLY — each as
// its own DES process — on one resident session over one simulated
// deployment, under a deployment-wide admission cap. Queries alternate
// between 2 and 3 join partitions so the interleaved schedulers exercise
// different fleet shapes.
func runSessionConcurrentQ12(t *testing.T, sess *Session, k *simclock.Kernel, dep *Deployment, levels, K int) sessionRun {
	t.Helper()
	res := sessionRun{
		outs:   make([]*columnar.Chunk, K),
		reps:   make([]*Report, K),
		epochs: map[string]int{},
	}
	done := 0
	k.Go("setup", func(p *simclock.Proc) {
		tables, err := layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}.upload(p, sess)
		if err != nil {
			t.Error(err)
			return
		}
		before := dep.Meter.Cost()
		for i := 0; i < K; i++ {
			i := i
			k.Go(fmt.Sprintf("query%d", i), func(p *simclock.Proc) {
				defer func() {
					done++
					simenv.BroadcastKey(p, "test/done")
				}()
				scfg := shuffled(2 + i%2)
				scfg.Exchange.Poll = 100 * time.Millisecond
				scfg.Exchange.Variant.Levels = levels
				out, rep, err := sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				res.outs[i], res.reps[i] = out, rep
			})
		}
		for done < K {
			simenv.WaitNotifyKey(p, "test/done", 100*time.Millisecond)
		}
		res.billed = dep.Meter.Cost().Sub(before)
		// Epoch fence rows: every live query ran under its own query ID, so
		// the fence rows are disjoint and each sits at epoch 1.
		table := stagesTableName(sess.Config().FunctionName)
		for i := 1; i <= K; i++ {
			qid := fmt.Sprintf("q%d", i)
			v, err := dep.Dynamo.Get(p, table, epochKey(qid))
			if err != nil {
				t.Errorf("epoch row %s: %v", qid, err)
				continue
			}
			e, _, ok := parseEpochValue(v)
			if !ok {
				t.Errorf("epoch row %s: corrupt value %q", qid, v)
				continue
			}
			res.epochs[qid] = e
		}
		res.vend = p.Now()
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	return res
}

// TestSessionConcurrentStagedByteIdentical is the tentpole acceptance test:
// K=4 staged queries interleaved on ONE resident session — sharing the
// deployment, the admission budget, and the warm container pool, separated
// only by query ID, epoch, and per-query result queue — produce results
// byte-identical to sequential one-shot runs, for both exchange variants,
// deterministically across two seeded runs, and the admission cap is never
// exceeded.
func TestSessionConcurrentStagedByteIdentical(t *testing.T) {
	const K, maxInFlight = 4, 12
	// Sequential one-shot baseline on a fresh classic driver.
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts})
	want := singleNode(t, q12ExactSQL, tpchData(33).catalog())
	oneShot := map[int]*columnar.Chunk{}
	for _, levels := range []int{1, 2} {
		scfg := shuffled(2)
		scfg.Exchange.Variant.Levels = levels
		out, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, scfg)
		if err != nil {
			t.Fatalf("one-shot baseline (levels=%d): %v", levels, err)
		}
		chunksIdentical(t, out, want)
		oneShot[levels] = out
	}

	run := func(levels int) (sessionRun, *Session) {
		k := simclock.New()
		dep := NewSimulated(k, 71)
		cfg := desConfig()
		cfg.MaxInFlight = maxInFlight
		sess := NewSession(dep, cfg)
		return runSessionConcurrentQ12(t, sess, k, dep, levels, K), sess
	}
	for _, levels := range []int{1, 2} {
		r1, s1 := run(levels)
		r2, _ := run(levels)
		for i := 0; i < K; i++ {
			if r1.outs[i] == nil {
				t.Fatalf("levels=%d: query %d produced no result", levels, i)
			}
			chunksIdentical(t, r1.outs[i], oneShot[levels])
			chunksIdentical(t, r2.outs[i], r1.outs[i])
			assertQueryClean(t, s1, r1.reps[i].QueryID)
			if r1.reps[i].Duration != r2.reps[i].Duration || r1.reps[i].TotalCost != r2.reps[i].TotalCost {
				t.Errorf("levels=%d: query %d not deterministic: (%v, %v) vs (%v, %v)", levels, i,
					r1.reps[i].Duration, r1.reps[i].TotalCost, r2.reps[i].Duration, r2.reps[i].TotalCost)
			}
		}
		if r1.vend != r2.vend {
			t.Errorf("levels=%d: virtual end time not deterministic: %v vs %v", levels, r1.vend, r2.vend)
		}
		adm := s1.Admission()
		if adm.Capacity() != maxInFlight {
			t.Fatalf("levels=%d: capacity = %d, want %d", levels, adm.Capacity(), maxInFlight)
		}
		if adm.Peak() > maxInFlight {
			t.Errorf("levels=%d: admission peak %d exceeded cap %d", levels, adm.Peak(), maxInFlight)
		}
		if of := adm.Overflow(); of != 0 {
			t.Errorf("levels=%d: fault-free run admitted %d overflow invocations", levels, of)
		}
		if adm.Blocked() == 0 {
			t.Errorf("levels=%d: cap %d never blocked %d concurrent fleets — cap not binding, test too weak", levels, maxInFlight, K)
		}
		if len(r1.epochs) != K {
			t.Errorf("levels=%d: epoch rows = %v, want %d disjoint rows", levels, r1.epochs, K)
		}
		for qid, e := range r1.epochs {
			if e != 1 {
				t.Errorf("levels=%d: epoch[%s] = %d, want 1 (disjoint per-query fences)", levels, qid, e)
			}
		}
	}
}

// TestSessionChaosConcurrentQueries: two staged queries in flight on one
// session over a chaos deployment (transients, duplicates, throttles, cold
// spikes, one mid-run crash) still both finish with byte-correct results,
// deterministically. Recovery traffic is admitted past the cap rather than
// risking a token deadlock, so Overflow may be positive here — the
// fault-free bound is asserted in the test above.
func TestSessionChaosConcurrentQueries(t *testing.T) {
	run := func() ([]*columnar.Chunk, time.Duration, int) {
		k := simclock.New()
		dep := NewChaos(k, 71, chaosPlanQ12())
		cfg := desConfig()
		cfg.MaxInFlight = 10
		// Speculation is what recovers the mid-run crash — without it the
		// crashed worker's seal never arrives and its stage can't finish.
		cfg.Speculate = DefaultSpeculateConfig()
		// Two interleaved queries under a tight cap live much longer in
		// virtual time than the single-query chaos runs, so the default
		// 256-op retry budget drowns in injected receive timeouts alone.
		cfg.RetryBudget = 4096
		sess := NewSession(dep, cfg)
		r := runSessionConcurrentQ12(t, sess, k, dep, 0, 2)
		return r.outs, r.vend, dep.Faults.TotalInjected()
	}
	outs1, vend1, injected := run()
	outs2, vend2, _ := run()
	if injected == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	want := singleNode(t, q12ExactSQL, tpchData(33).catalog())
	for i := range outs1 {
		if outs1[i] == nil || outs2[i] == nil {
			t.Fatalf("query %d produced no result under chaos", i)
		}
		chunksIdentical(t, outs1[i], want)
		chunksIdentical(t, outs2[i], outs1[i])
	}
	if vend1 != vend2 {
		t.Errorf("chaos run not deterministic: virtual end %v vs %v", vend1, vend2)
	}
}

// TestSessionEpochFenceAcrossSessions: a second session on the same
// deployment restarts query numbering at q1, landing on the same queue name
// and fence row as the first session's q1 — the durable epoch counter keeps
// the runs in disjoint epochs anyway, and the repeat query's result stays
// byte-identical.
func TestSessionEpochFenceAcrossSessions(t *testing.T) {
	dep := NewLocal()
	runOn := func() *columnar.Chunk {
		t.Helper()
		var out *columnar.Chunk
		_, err := onGoroutines(dep, DefaultConfig(), stdLayout, func(env simenv.Env, sess *Session, tables TableFiles) (err error) {
			out, _, err = sess.RunSQLStaged(env, q12ExactSQL, tables, shuffled(2))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out1 := runOn()
	out2 := runOn()
	chunksIdentical(t, out2, out1)

	env := simenv.NewImmediate()
	table := stagesTableName(DefaultConfig().FunctionName)
	v, err := dep.Dynamo.Get(env, table, epochKey("q1"))
	if err != nil {
		t.Fatal(err)
	}
	e, _, ok := parseEpochValue(v)
	if !ok || e != 2 {
		t.Fatalf("q1 fence after two sessions = %q (epoch %d), want epoch 2", v, e)
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
	// RunSQL hits. A query with a driver-resident table has no key — the cache
	// cannot tell one chunk's contents from another's — and always runs.
	if _, _, err := sess.RunSQL(env, q6SQL, "lineitem", liRefs); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := sess.RunSQL(env, q6SQL, "lineitem", liRefs); err != nil || !rep.CacheHit {
		t.Errorf("repeated RunSQL: hit = %v, err = %v, want a cache hit", rep != nil && rep.CacheHit, err)
	}
	for i := 0; i < 2; i++ {
		out, rep, err := sess.runSQL(env, q12ExactSQL, TableFiles{"lineitem": liRefs}, map[string]*columnar.Chunk{"orders": data.orders}, DefaultStageConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit {
			t.Errorf("run %d with a driver-resident table was served from the cache", i)
		}
		chunksIdentical(t, out, out1)
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
				if adm.Peak() > maxInFlight || adm.Oversized() != 0 || adm.Acquired() != uint64(fleet) {
					t.Errorf("fleet %d cap %d: admission peak %d, oversized %d, acquired %d",
						fleet, maxInFlight, adm.Peak(), adm.Oversized(), adm.Acquired())
				}
				if held := adm.Blocked() > 0; held != (fleet > maxInFlight) {
					t.Errorf("fleet %d cap %d: blocked %d times", fleet, maxInFlight, adm.Blocked())
				}
			}
			assertQueryClean(t, sess, rep.QueryID)
		}
	}
}
