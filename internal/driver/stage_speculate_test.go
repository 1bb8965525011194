package driver

import (
	"encoding/json"
	"fmt"
	"path"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/obs"
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
	cfg := desConfig()
	cfg.Speculate = DefaultSpeculateConfig()
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		// A degraded container stalls the first attempt of scan-stage
		// worker 1; the backup attempt lands on a healthy container.
		if stage == 0 && workerID == 1 && attempt == 0 {
			return stall
		}
		return 0
	}
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	scfg.Exchange.Variant.WriteCombining = wc
	scfg.Exchange.Variant.Levels = levels
	_, err := onDES(simulated(53), cfg, layout{Data: 17, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		if first, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg); err != nil {
			return fmt.Errorf("straggler query: %w", err)
		}
		// Run the same query again while the stalled loser attempt is still
		// in flight; its leftovers must not poison this one.
		second, _, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatalf("wc=%v: %v", wc, err)
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
	want := singleNode(t, q12ExactSQL, tpchData(17).catalog())
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

// TestStagedReadsTheSealedWinner: the consumers of a boundary read, per
// writer, the attempt the driver sealed first — not the lowest committed one.
// Worker 1 of scan stage 1 stalls on attempt 0 and its backup, attempt 1,
// seals the stage. As the backup starts, a committed attempt 0 of writer 1 is
// planted in the query's boundary namespace: a copy of writer 0's objects
// under writer 1's names, which decodes to writer 0's rows in place of writer
// 1's. The answer stays byte-identical to single-node execution, for both
// write-combining modes. A reader taking each writer's lowest committed
// attempt collects the plant and miscounts.
func TestStagedReadsTheSealedWinner(t *testing.T) {
	const stalled = 1
	want := singleNode(t, q12ExactSQL, tpchData(17).catalog())
	// Writer 0's names of attempt 0, as writer 1's: the write-combined object
	// (either form) and its commit marker, or a slot file.
	asWriter1 := strings.NewReplacer("snd0-a0", "snd1-a0", "a0-snd0", "a0-snd1")
	for _, wc := range []bool{false, true} {
		var dep *Deployment
		var got *columnar.Chunk
		var rep *Report
		planted := 0
		cfg := desConfig()
		cfg.Speculate = DefaultSpeculateConfig()
		plant := func(p *simclock.Proc) {
			client := s3.NewClient(dep.S3, p)
			prefix := fmt.Sprintf("%s/q1/e1/s%d/", cfg.FunctionName, stalled)
			for i := 0; i < exchange.ShardBuckets; i++ {
				bucket := exchangeBucketName(cfg.FunctionName, i)
				entries, err := client.List(bucket, prefix)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					dir, base := path.Split(e.Key)
					if planting := asWriter1.Replace(base); planting != base {
						data, _, err := client.Get(bucket, e.Key, 1)
						if err == nil {
							err = client.Put(bucket, dir+planting, data)
						}
						if err != nil {
							t.Error(err)
							return
						}
						planted++
					}
				}
			}
		}
		var k *simclock.Kernel
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage != stalled || workerID != 1 {
				return 0
			}
			if attempt == 0 {
				return 10 * time.Minute
			}
			// The backup: writer 0 sealed before it was issued, so its
			// objects are there to copy. The backup waits out the planting.
			k.Go("plant", plant)
			return 2 * time.Second
		}
		scfg := shuffled(2)
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.Exchange.Variant.Levels = 1
		_, err := onDES(func(kern *simclock.Kernel) *Deployment {
			k, dep = kern, NewSimulated(kern, 53)
			return dep
		}, cfg, layout{Data: 17, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
			got, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			return err
		})
		if err != nil {
			t.Fatalf("wc=%v: %v", wc, err)
		}
		if planted == 0 {
			t.Fatalf("wc=%v: nothing planted (test premise broken)", wc)
		}
		speculated := false
		for _, ss := range rep.StageStats {
			speculated = speculated || ss.StageID == stalled && ss.Speculated > 0
		}
		if !speculated {
			t.Fatalf("wc=%v: stage %d was not speculated (test premise broken): %+v", wc, stalled, rep.StageStats)
		}
		chunksIdentical(t, got, want)
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
// namespace. The first run took its epoch fence and crashed, leaving what
// such a run really leaves: the epoch item at 1, committed boundary objects
// under q1/e1, and seal messages of epoch 1 on q1's result queue. Nothing is
// purged or swept before the retry launches: the fence alone keeps them out
// — the retry runs at epoch 2, discards both seals, and reads none of the
// objects, so its answer is byte-identical to single-node — and its
// epoch > 1 sweep reclaims the e1 debris afterwards.
func TestStagedStaleArtifactsDoNotPoisonRetry(t *testing.T) {
	dep := NewLocal()
	dep.EnableTracing(obs.New())
	env := simenv.NewImmediate()
	cfg := DefaultConfig()
	d1 := NewSession(dep, cfg)
	if err := d1.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.002, Seed: 29}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := d1.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ordRefs, err := d1.UploadTable(env, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}

	scfg := DefaultStageConfig()
	scfg.Partitions = 2
	scfg.BroadcastRowLimit = -1
	scfg.Exchange.Variant.WriteCombining = false
	scfg.Exchange.Variant.Levels = 1

	// The aborted run: d1's q1 takes its fence — and its driver dies before
	// it closes the query, so the private queue stays.
	table := stagesTableName(cfg.FunctionName)
	dep.Dynamo.CreateTable(table)
	if e, err := d1.newQuery(env).acquireEpoch(table, "q1"); err != nil || e != 1 {
		t.Fatalf("aborted run's epoch = %d, %v, want 1", e, err)
	}
	// Its boundary objects: a committed attempt of sender 0 of stage 1, the
	// lineitem scan, in the staged form the retry's stage 1 writes, whose rows
	// would skew every aggregate if the join collected them.
	opts := exchange.Options{
		Variant: exchange.Variant{Levels: 1},
		Buckets: d1.InstallExchange(),
		Prefix:  cfg.FunctionName + "/q1/e1",
	}
	poison := columnar.NewChunk(columnar.NewSchema(
		columnar.Field{Name: "l_orderkey", Type: columnar.Int64},
	), 64)
	for i := 0; i < 64; i++ {
		poison.Columns[0].AppendInt64(int64(i))
	}
	client := s3.NewClient(dep.S3, env)
	_, err = exchange.PublishSealed(client, opts, exchange.Boundary{Stage: 1, Senders: 4, Partitions: 2}, 0, poison, []string{"l_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	// Its seal messages on q1's queue, including a bogus result-stage chunk
	// (the join stage, 0, is the result stage: q12's partials merge on the
	// driver).
	for _, rm := range []resultMsg{
		{QueryID: "q1", Epoch: 1, Stage: 1, WorkerID: 0},
		{QueryID: "q1", Epoch: 1, Stage: 0, WorkerID: 0, Chunk: []byte("not an lpq blob")},
	} {
		body, err := json.Marshal(rm)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.SQS.Send(env, queryQueueName(cfg.ResultQueue, "q1"), body); err != nil {
			t.Fatal(err)
		}
	}

	// The retry: a fresh driver, same deployment, same query numbering.
	env2 := simenv.NewImmediate()
	d2 := NewSession(dep, cfg)
	if err := d2.Install(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := d2.RunSQLStaged(env2, q12ExactSQL, tables, scfg)
	if err != nil {
		t.Fatalf("retry poisoned by stale artifacts: %v", err)
	}
	if rep.QueryID != "q1" || rep.Epoch != 2 {
		t.Fatalf("retry ran as %s at epoch %d, want q1 at epoch 2 (test premise broken)", rep.QueryID, rep.Epoch)
	}
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, got, want)
	if qs, _ := rep.Trace.Span(rep.Span); qs.Tags["zombieDiscards"] != "2" {
		t.Errorf("zombieDiscards = %q, want both stale seals received and discarded", qs.Tags["zombieDiscards"])
	}
	assertQueryClean(t, d2, "q1")
}

// TestStagedSweepClearsBoundaries: after a staged query returns, the
// driver's keyed delete has emptied the query's boundary namespace in every
// shard bucket (all workers sealed before the driver deleted, so nothing is
// republished afterwards).
func TestStagedSweepClearsBoundaries(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: gzipLayout.Opts})
	cfg := shuffled(2)
	// A concurrent query whose ID merely starts with this one's (q10 next to
	// q1) owns a different namespace: q1's cleanup must leave it alone.
	buckets := d.InstallExchange()
	client := s3.NewClient(d.dep.S3, env)
	sibling := d.cfg.FunctionName + "/q10/e1/live-boundary-object"
	if err := client.Put(buckets[0], sibling, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg); err != nil {
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
		t.Errorf("q1's cleanup took query q10's object %s: %v", sibling, err)
	}
}
