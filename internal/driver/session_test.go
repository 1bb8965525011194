package driver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestDeterministicMeansNoHostThreads: a session on a DES deployment turns
// off the scan's two thread levels and nothing else — the request levels ride
// the S3 client's window, which needs no thread — and one on goroutine
// workers touches no scan field at all.
func TestDeterministicMeansNoHostThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scan.ParallelColumns, cfg.Scan.MetaPrefetch = true, true
	cfg.Scan.ParallelFiles, cfg.Scan.CoalesceGapBytes, cfg.Scan.DisableLateMaterialize = 4, 1<<10, true
	want := cfg.Scan
	want.DoubleBuffer, want.ParallelFiles = false, 1
	if got := NewSession(NewSimulated(simclock.New(), 1), cfg).Config().Scan; got != want {
		t.Errorf("deterministic session scans with %+v, want %+v", got, want)
	}
	if got := NewSession(NewLocal(), cfg).Config().Scan; got != cfg.Scan {
		t.Errorf("local session scans with %+v, want %+v", got, cfg.Scan)
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
		if err := sess.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li := g.Generate()
		orders := g.OrdersFor(li)
		liRefs, err := sess.UploadTable(p, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := sess.UploadTable(p, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
		before := dep.Meter.Cost()
		for i := 0; i < K; i++ {
			i := i
			k.Go(fmt.Sprintf("query%d", i), func(p *simclock.Proc) {
				defer func() {
					done++
					simenv.BroadcastKey(p, "test/done")
				}()
				scfg := DefaultStageConfig()
				scfg.Partitions = 2 + i%2
				scfg.BroadcastRowLimit = -1
				scfg.Exchange.Poll = 100 * time.Millisecond
				scfg.ExchangeLevels = levels
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
	d, tables, li, orders := stagedSetup(t, 0.002, 4, 2)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	oneShot := map[int]*columnar.Chunk{}
	for _, levels := range []int{1, 2} {
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.ExchangeLevels = levels
		out, _, err := d.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err != nil {
			t.Fatalf("one-shot baseline (levels=%d): %v", levels, err)
		}
		chunksIdentical(t, out, want)
		oneShot[levels] = out
	}

	run := func(levels int) (sessionRun, *Session) {
		k := simclock.New()
		dep := NewSimulated(k, 71)
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
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
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
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
	g := tpch.Gen{SF: 0.002, Seed: 33}
	li := g.Generate()
	orders := g.OrdersFor(li)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
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
	env := simenv.NewImmediate()
	cfg := DefaultConfig()

	runOn := func(sess *Session) *columnar.Chunk {
		t.Helper()
		if err := sess.Install(); err != nil {
			t.Fatal(err)
		}
		g := tpch.Gen{SF: 0.002, Seed: 11}
		li := g.Generate()
		orders := g.OrdersFor(li)
		liRefs, err := sess.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Fatal(err)
		}
		ordRefs, err := sess.UploadTable(env, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Fatal(err)
		}
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		out, _, err := sess.RunSQLStaged(env, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	out1 := runOn(NewSession(dep, cfg))
	out2 := runOn(NewSession(dep, cfg))
	chunksIdentical(t, out2, out1)

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
	d, tables, _, _ := stagedSetup(t, 0.002, 4, 2)
	cfg := DefaultStageConfig()
	cfg.Partitions = 2
	cfg.BroadcastRowLimit = -1
	if _, _, err := d.RunSQLStaged(q12ExactSQL, tables, cfg); err != nil {
		t.Fatal(err)
	}
	q1 := queryQueueName(d.cfg.ResultQueue, "q1")
	if err := d.dep.SQS.Send(d.env, q1, []byte("{}")); !errors.Is(err, sqs.ErrNoSuchQueue) {
		t.Errorf("zombie post to %s after teardown: err = %v, want ErrNoSuchQueue", q1, err)
	}
	// The base queue survives — it seeds the next query's derived name.
	if err := d.dep.SQS.Send(d.env, d.cfg.ResultQueue, []byte("{}")); err != nil {
		t.Errorf("base queue gone after query teardown: %v", err)
	}
}

// TestSessionResultCache: a repeated staged query is served from the result
// cache — byte-identical to the first run, no workers invoked — and both
// invalidation paths (by table, and the implicit clear on re-upload) force
// a fresh run.
func TestSessionResultCache(t *testing.T) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	cfg := DefaultConfig()
	cfg.ResultCacheEntries = 4
	sess := NewSession(dep, cfg)
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.002, Seed: 11}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := sess.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ordRefs, err := sess.UploadTable(env, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
	scfg := DefaultStageConfig()
	scfg.Partitions = 2
	scfg.BroadcastRowLimit = -1

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
	if _, err := sess.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000}); err != nil {
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
		out, rep, err := sess.RunSQLBroadcast(env, q12ExactSQL, "lineitem", liRefs, map[string]*columnar.Chunk{"orders": orders})
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

// TestLaunchMatrix drives the one launch loop through every kind of unit it
// builds: fleets below and above the tree threshold, with the invocation
// tree on and off, on a session without a cap (tree units of 1+children
// tokens where the policy picks the tree), under a cap the fleet overruns
// (single-worker units, partial launches resumed from the event loop) and
// under one it fits. Every worker is invoked exactly once, the admission
// peak respects the cap, the result is the single node's, and nothing is
// left behind.
func TestLaunchMatrix(t *testing.T) {
	data := tpch.Gen{SF: 0.002, Seed: 33}.Generate()
	want := singleNode(t, launchMatrixSQL, engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)})
	for _, fleet := range []int{1, 3, 4, 17} {
		for _, tree := range []bool{true, false} {
			for _, maxInFlight := range []int{0, 2, 32} {
				k := simclock.New()
				dep := NewSimulated(k, 71)
				cfg := DefaultConfig()
				cfg.PollInterval = 50 * time.Millisecond
				cfg.TreeInvoke = tree
				cfg.MaxInFlight = maxInFlight
				sess := NewSession(dep, cfg)
				var out *columnar.Chunk
				var rep *Report
				k.Go("driver", func(p *simclock.Proc) {
					if err := sess.Install(); err != nil {
						t.Error(err)
						return
					}
					refs, err := sess.UploadTable(p, "tpch", "lineitem", data, fleet, lpq.WriterOptions{RowGroupRows: 2000})
					if err != nil {
						t.Error(err)
						return
					}
					if out, rep, err = sess.RunSQL(p, launchMatrixSQL, "lineitem", refs); err != nil {
						t.Error(err)
					}
				})
				k.Run()
				if k.Deadlocked() {
					t.Fatalf("fleet %d tree %v cap %d: DES deadlocked", fleet, tree, maxInFlight)
				}
				if t.Failed() {
					t.FailNow()
				}
				chunksIdentical(t, out, want)
				invoked, _ := dep.Lambda.Invocations()
				if rep.Workers != fleet || invoked != int64(fleet) || len(rep.WorkerProcessing) != fleet {
					t.Errorf("fleet %d tree %v cap %d: %d workers, %d invocations, %d seals — want %d of each",
						fleet, tree, maxInFlight, rep.Workers, invoked, len(rep.WorkerProcessing), fleet)
				}
				adm := sess.Admission()
				if (adm != nil) != (maxInFlight > 0) {
					t.Fatalf("cap %d: session admission = %v", maxInFlight, adm)
				}
				if adm != nil {
					if adm.Peak() > maxInFlight || adm.Oversized() != 0 || adm.Acquired() != uint64(fleet) {
						t.Errorf("fleet %d tree %v cap %d: admission peak %d, oversized %d, acquired %d",
							fleet, tree, maxInFlight, adm.Peak(), adm.Oversized(), adm.Acquired())
					}
					if held := adm.Blocked() > 0; held != (fleet > maxInFlight) {
						t.Errorf("fleet %d tree %v cap %d: blocked %d times", fleet, tree, maxInFlight, adm.Blocked())
					}
				}
				assertQueryClean(t, sess, rep.QueryID)
			}
		}
	}
}
