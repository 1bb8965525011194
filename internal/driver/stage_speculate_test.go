package driver

import (
	"encoding/json"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// runStagedWithStraggler runs the q12 shuffle on the DES deployment with
// one scan-stage worker stalled past the straggler deadline on its first
// attempt, speculation enabled, and a second query chased right behind the
// first (the stalled loser is still in flight then — its late seal and
// boundary files must not leak into it). It returns both queries' results
// and the first report.
func runStagedWithStraggler(t *testing.T, wc bool, levels int, stall time.Duration) (first, second *columnar.Chunk, rep *Report) {
	t.Helper()
	k := simclock.New()
	dep := NewSimulated(k, 53)
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		cfg.Speculate = DefaultSpeculateConfig()
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			// A degraded container stalls the first attempt of scan-stage
			// worker 1; the backup attempt lands on a healthy container.
			if stage == 0 && workerID == 1 && attempt == 0 {
				return stall
			}
			return 0
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 17}
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
		tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.ExchangeLevels = levels
		first, rep, err = d.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err != nil {
			t.Errorf("wc=%v: straggler query failed: %v", wc, err)
			return
		}
		// Run the same query again while the stalled loser attempt is still
		// in flight; its leftovers must not poison this one.
		second, _, err = d.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err != nil {
			t.Errorf("wc=%v: follow-up query failed: %v", wc, err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	return first, second, rep
}

// TestStagedSpeculationCompletesViaBackup is the failure-injection
// acceptance test: with one stage worker delayed far past the straggler
// deadline, the staged query finishes through a backup attempt — results
// byte-identical to single-node execution, latency well below the stall —
// for both exchange variants, and a chased second query is untouched by the
// loser attempt's leftovers.
func TestStagedSpeculationCompletesViaBackup(t *testing.T) {
	const stall = 10 * time.Minute
	g := tpch.Gen{SF: 0.002, Seed: 17}
	li := g.Generate()
	orders := g.OrdersFor(li)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	for _, wc := range []bool{false, true} {
		first, second, rep := runStagedWithStraggler(t, wc, 1, stall)
		if t.Failed() {
			return
		}
		chunksIdentical(t, first, want)
		chunksIdentical(t, second, want)
		if rep.Speculated == 0 {
			t.Errorf("wc=%v: no backup attempts issued for the straggler", wc)
		}
		if rep.Duration >= stall {
			t.Errorf("wc=%v: latency %v waited out the %v stall", wc, rep.Duration, stall)
		}
		found := false
		for _, ss := range rep.StageStats {
			if ss.StageID == 0 && ss.Speculated > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("wc=%v: stage stats did not attribute the backup: %+v", wc, rep.StageStats)
		}
	}
}

// TestStagedSpeculationDESDeterministic: the speculated staged run is fully
// deterministic on the DES kernel — identical results, virtual latency and
// cost across runs, injected straggler and all.
func TestStagedSpeculationDESDeterministic(t *testing.T) {
	run := func() (int64, time.Duration) {
		first, _, rep := runStagedWithStraggler(t, true, 1, 2*time.Minute)
		if t.Failed() {
			t.FailNow()
		}
		return first.Column("n").Int64s[0], rep.Duration
	}
	n1, d1 := run()
	n2, d2 := run()
	if n1 != n2 || d1 != d2 {
		t.Errorf("speculated staged DES run not deterministic: (%d,%v) vs (%d,%v)", n1, d1, n2, d2)
	}
}

// TestStagedStaleArtifactsDoNotPoisonRetry: a fresh driver on the same
// deployment restarts query numbering, so a retried query reuses the q1
// namespace. Leftover completion messages and committed boundary files of
// the aborted first run — a loser attempt's garbage — must be purged and
// swept before the retry's barriers can see them.
func TestStagedStaleArtifactsDoNotPoisonRetry(t *testing.T) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	cfg := DefaultConfig()
	d1 := New(dep, env, cfg)
	if err := d1.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.002, Seed: 29}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := d1.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ordRefs, err := d1.UploadTable("tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}

	scfg := DefaultStageConfig()
	scfg.Partitions = 2
	scfg.BroadcastRowLimit = -1
	scfg.Exchange.Variant.WriteCombining = false
	scfg.ExchangeLevels = 1

	// Manufacture the aborted run's debris. Boundary garbage: a committed
	// attempt of sender 0 of stage 1, the lineitem scan, under the q1 prefix,
	// whose rows would skew every aggregate if the join collected them.
	buckets := d1.InstallExchange()
	opts := exchange.Options{
		Variant: exchange.Variant{Levels: 1},
		Buckets: buckets,
		Prefix:  cfg.FunctionName + "/q1",
		Poll:    time.Millisecond,
		MaxWait: time.Second,
	}
	poison := columnar.NewChunk(columnar.NewSchema(
		columnar.Field{Name: "l_orderkey", Type: columnar.Int64},
	), 64)
	for i := 0; i < 64; i++ {
		poison.Columns[0].AppendInt64(int64(i))
	}
	client := s3.NewClient(dep.S3, env)
	err = exchange.PublishStage(client, opts, exchange.Boundary{Stage: 1, Senders: 4, Partitions: 2}, 0, poison, []string{"l_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	// Queue garbage: stale q1 seal messages, including a bogus result-stage
	// chunk (the join stage, 0, is the result stage: q12's partials merge on
	// the driver).
	for _, rm := range []resultMsg{
		{QueryID: "q1", Stage: 1, WorkerID: 0},
		{QueryID: "q1", Stage: 0, WorkerID: 0, Chunk: []byte("not an lpq blob")},
	} {
		body, err := json.Marshal(rm)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.SQS.Send(env, cfg.ResultQueue, body); err != nil {
			t.Fatal(err)
		}
	}

	// The retry: a fresh driver, same deployment, same query numbering.
	d2 := New(dep, simenv.NewImmediate(), cfg)
	if err := d2.Install(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := d2.RunSQLStaged(q12ExactSQL, tables, scfg)
	if err != nil {
		t.Fatalf("retry poisoned by stale artifacts: %v", err)
	}
	if rep.QueryID != "q1" {
		t.Fatalf("retry ran as %s, want q1 (test premise broken)", rep.QueryID)
	}
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, got, want)
}

// TestStagedSweepClearsBoundaries: after a staged query returns, the
// stale-drain collector has emptied the query's boundary namespace in every
// shard bucket (all workers sealed before the driver swept, so nothing is
// republished afterwards).
func TestStagedSweepClearsBoundaries(t *testing.T) {
	d, tables, _, _ := stagedSetup(t, 0.002, 4, 2)
	cfg := DefaultStageConfig()
	cfg.Partitions = 2
	cfg.BroadcastRowLimit = -1
	// A concurrent query whose ID merely starts with this one's (q10 next to
	// q1) owns a different namespace: q1's sweeps must leave it alone.
	buckets := d.InstallExchange()
	client := s3.NewClient(d.dep.S3, d.env)
	sibling := d.cfg.FunctionName + "/q10/e1/live-boundary-object"
	if err := client.Put(buckets[0], sibling, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RunSQLStaged(q12ExactSQL, tables, cfg); err != nil {
		t.Fatal(err)
	}
	prefix := d.cfg.FunctionName + "/q1/"
	for _, b := range buckets {
		entries, err := client.List(b, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("bucket %s still holds %d objects under %s (first: %s)", b, len(entries), prefix, entries[0].Key)
		}
	}
	if _, _, err := client.Get(buckets[0], sibling, 1); err != nil {
		t.Errorf("q1's sweep took query q10's object %s: %v", sibling, err)
	}
}
