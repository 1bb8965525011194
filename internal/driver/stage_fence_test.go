package driver

import (
	"encoding/json"
	"fmt"
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
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// q12PoisonSQL is the aborted run's query in the zombie-seal scenario: the
// same q12 shape over a different date window, so its boundary rows and
// seals differ from the retry's — debris that would skew every aggregate if
// the retry's barriers accepted it.
const q12PoisonSQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_linenumber) AS lines,
       MIN(l_shipdate) AS first_ship, MAX(l_shipdate) AS last_ship
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

// runStagedZombieSeal reproduces the race the epoch fence closes. Driver 1
// runs the poison query as q1 with one scan worker stalled; its exchange
// consumers time out, the query aborts, and the stalled worker — a zombie
// of the aborted run — is still in flight. Driver 2 (fresh, same
// deployment, query numbering restarted) retries a different query under
// the same q1 namespace. The zombie wakes AFTER driver 2's pre-launch
// purge/sweep, publishes its boundary files and posts its seal mid-retry —
// and the retry must not notice: the zombie's artifacts all carry epoch 1,
// the retry runs as epoch 2.
func runStagedZombieSeal(t *testing.T, wc bool, levels int) (*columnar.Chunk, *Report, time.Duration, float64) {
	t.Helper()
	const zombieStall = 28 * time.Second
	k := simclock.New()
	dep := NewSimulated(k, 97)
	var out *columnar.Chunk
	var rep *Report
	var dur time.Duration
	var cost float64
	k.Go("driver", func(p *simclock.Proc) {
		base := DefaultConfig()
		base.PollInterval = 50 * time.Millisecond
		// Stage 1 is the lineitem scan (stage 0 is the join): a scan worker
		// makes the sharpest zombie — woken, it immediately publishes its
		// boundary files and posts its seal, no barriers in between.
		cfg1 := base
		cfg1.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			// Worker 0 always exists, whatever file pruning leaves of the
			// lineitem fleet.
			if stage == 1 && workerID == 0 && attempt == 0 {
				return zombieStall
			}
			return 0
		}
		d1 := New(dep, p, cfg1)
		if err := d1.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 41}
		li := g.Generate()
		orders := g.OrdersFor(li)
		liRefs, err := d1.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d1.UploadTable("tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		// Driver 1's consumers give up well before the zombie wakes, so the
		// abort happens first and its error seals are purged before the
		// retry launches.
		scfg.Exchange.MaxWait = 20 * time.Second
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.ExchangeLevels = levels

		d1Start := p.Now()
		if _, _, err := d1.RunSQLStaged(q12PoisonSQL, tables, scfg); err == nil {
			t.Error("aborted run unexpectedly succeeded (test premise broken)")
			return
		}

		// The retry: fresh driver, query numbering restarts at q1. The
		// zombie of the aborted run is still asleep.
		d2 := New(dep, p, base)
		if err := d2.Install(); err != nil {
			t.Error(err)
			return
		}
		d2Start := p.Now()
		if d1Start+zombieStall <= d2Start {
			t.Errorf("zombie woke at ≤%v, before the retry's purge at %v (test premise broken)",
				d1Start+zombieStall, d2Start)
			return
		}
		// Stall the retry's own (stage 1, worker 1) past the zombie's post,
		// so the zombie's stale seal arrives while the retry is still
		// waiting for that very worker — the exact interleaving that would
		// have sealed the scan stage with the poison run's boundary data.
		cfg2 := base
		cfg2.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && workerID == 1 && attempt == 0 {
				return 15 * time.Second
			}
			return 0
		}
		d2 = New(dep, p, cfg2)
		if err := d2.Install(); err != nil {
			t.Error(err)
			return
		}
		out, rep, err = d2.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err != nil {
			t.Errorf("wc=%v: retry poisoned: %v", wc, err)
			return
		}
		dur = rep.Duration
		cost = rep.TotalCost
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}

	// The zombie's seal must have been received — and discarded — during
	// the retry's collection window: nothing may linger in the result
	// queue once the simulation drained.
	if n := dep.SQS.Len(DefaultConfig().ResultQueue); n != 0 {
		t.Errorf("wc=%v: %d messages left in the result queue (zombie posted outside the retry's window?)", wc, n)
	}
	// And the zombie's post-purge boundary files (epoch-1 debris) fell to
	// the retry's final sweep: the whole q1 namespace is empty, every epoch.
	client := s3.NewClient(dep.S3, simenv.NewImmediate())
	for _, b := range bucketNamesFor(DefaultConfig().FunctionName, exchangeShardBuckets) {
		entries, err := client.List(b, DefaultConfig().FunctionName+"/q1")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("wc=%v: %d zombie boundary objects left in %s (first: %s)", wc, len(entries), b, entries[0].Key)
		}
	}
	return out, rep, dur, cost
}

// bucketNamesFor mirrors InstallExchange's shard-bucket naming.
func bucketNamesFor(fn string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-xshard-%d", fn, i)
	}
	return out
}

// TestStagedZombieSealDiscarded is the epoch-fence acceptance test: a
// zombie worker of an aborted identically-numbered run posts its seal and
// boundary files after the retry's purge, and the retry's result stays
// byte-identical to a clean single-node run — at both exchange variants —
// with the whole boundary namespace (the zombie's epoch-1 debris included)
// swept afterwards.
func TestStagedZombieSealDiscarded(t *testing.T) {
	g := tpch.Gen{SF: 0.002, Seed: 41}
	li := g.Generate()
	orders := g.OrdersFor(li)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	for _, wc := range []bool{false, true} {
		out, rep, _, _ := runStagedZombieSeal(t, wc, 1)
		chunksIdentical(t, out, want)
		if rep.QueryID != "q1" {
			t.Errorf("wc=%v: retry ran as %s, want q1 (test premise broken)", wc, rep.QueryID)
		}
		if rep.Epoch != 2 {
			t.Errorf("wc=%v: retry epoch = %d, want 2 (aborted run took 1)", wc, rep.Epoch)
		}
	}
}

// TestStagedZombieSealDESDeterministic: the zombie scenario — stall, abort,
// fence increment, discarded stale seal and all — resolves identically
// across DES runs.
func TestStagedZombieSealDESDeterministic(t *testing.T) {
	_, _, d1, c1 := runStagedZombieSeal(t, true, 1)
	_, _, d2, c2 := runStagedZombieSeal(t, true, 1)
	if d1 != d2 || c1 != c2 {
		t.Errorf("zombie scenario not deterministic: (%v,%v) vs (%v,%v)", d1, c1, d2, c2)
	}
}

// TestStagedSealFromUnknownWorkerDiscarded: seal messages that pass the epoch
// fence — right query ID, epoch and stage, posted mid-run so the purge does
// not eat them — but name a worker the stage does not have are strays like
// any other. Counted as a winner, the success seal would seal the scan stage
// while its stalled real worker is still out; relaunched, the retryable
// failure seal would index the stage's payloads out of range.
func TestStagedSealFromUnknownWorkerDiscarded(t *testing.T) {
	const stall = 5 * time.Second
	run := func(strays []resultMsg) (*columnar.Chunk, *Report) {
		k := simclock.New()
		dep := NewSimulated(k, 61)
		dep.EnableTracing(obs.New())
		var out *columnar.Chunk
		var rep *Report
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			// Hold the lineitem scan (stage 1) open until after the strays.
			cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
				if stage == 1 && workerID == 1 {
					return stall
				}
				return 0
			}
			d := New(dep, p, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			g := tpch.Gen{SF: 0.002, Seed: 41}
			li := g.Generate()
			liRefs, err := d.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			ordRefs, err := d.UploadTable("tpch", "orders", g.OrdersFor(li), 2, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = 2
			scfg.BroadcastRowLimit = -1
			scfg.Exchange.Poll = 100 * time.Millisecond
			k.GoAt(p.Now()+stall-time.Second, "stray", func(sp *simclock.Proc) {
				for _, rm := range strays {
					body, err := json.Marshal(rm)
					if err != nil {
						t.Error(err)
						return
					}
					if err := dep.SQS.Send(sp, queryQueueName(cfg.ResultQueue, "q1"), body); err != nil {
						t.Error(err)
					}
				}
			})
			out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
			if err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		if t.Failed() {
			t.FailNow()
		}
		for _, ss := range rep.StageStats {
			if ss.StageID == 1 && !ss.Regroup && ss.Sealed-ss.Launched < stall {
				t.Errorf("scan stage sealed %v after launch, before its stalled worker (%v) reported", ss.Sealed-ss.Launched, stall)
			}
		}
		return out, rep
	}
	want, _ := run(nil)
	got, rep := run([]resultMsg{
		{QueryID: "q1", Epoch: 1, Stage: 1, WorkerID: -1, Err: "stray", Retryable: true},
		{QueryID: "q1", Epoch: 1, Stage: 1, WorkerID: 4},
	})
	chunksIdentical(t, got, want)
	if rep.QueryID != "q1" || rep.Epoch != 1 {
		t.Fatalf("ran as %s epoch %d, the strays were addressed to q1 epoch 1 (test premise broken)", rep.QueryID, rep.Epoch)
	}
	if qs, _ := rep.Trace.Span(rep.Span); qs.Tags["zombieDiscards"] != "2" {
		t.Errorf("zombieDiscards = %q, want both strays discarded", qs.Tags["zombieDiscards"])
	}
	if rep.FailureSeals != 0 {
		t.Errorf("failure seals = %d: the stray failure seal was relaunched", rep.FailureSeals)
	}
}

// TestStagedAllStragglersRecovered covers the liveness hole the quorum
// policy cannot: EVERY worker of the scan stage stalls on its first
// attempt, so speculation's quorum never gets a single response. The
// per-stage MaxStageWait cap re-invokes the whole fleet as attempt 1 and
// the query completes far below the stall, byte-identical to single-node.
func TestStagedAllStragglersRecovered(t *testing.T) {
	const stall = 10 * time.Minute
	k := simclock.New()
	dep := NewSimulated(k, 59)
	var out *columnar.Chunk
	var rep *Report
	var li, orders *columnar.Chunk
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		cfg.Speculate = DefaultSpeculateConfig()
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && attempt == 0 {
				return stall // the whole first-attempt fleet of the lineitem scan
			}
			return 0
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 23}
		li = g.Generate()
		orders = g.OrdersFor(li)
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
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		scfg.Exchange.Variant.WriteCombining = false
		scfg.ExchangeLevels = 1
		scfg.MaxStageWait = 20 * time.Second
		out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("all-stragglers query failed: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, out, want)
	if rep.Duration >= stall {
		t.Errorf("latency %v waited out the %v stall (cap never fired)", rep.Duration, stall)
	}
	if rep.Duration >= 2*time.Minute {
		t.Errorf("latency %v, want well under 2m (cap at 20s plus one attempt)", rep.Duration)
	}
	scanFleet := 0
	for _, ss := range rep.StageStats {
		if ss.StageID == 1 {
			scanFleet = ss.Workers
			if ss.Speculated != ss.Workers {
				t.Errorf("scan stage speculated %d of %d workers, want the whole fleet", ss.Speculated, ss.Workers)
			}
		}
	}
	if scanFleet == 0 || rep.Speculated < scanFleet {
		t.Errorf("speculated = %d, want >= scan fleet (%d)", rep.Speculated, scanFleet)
	}
}

// TestStageFragmentSingleSealDeadline: a k-input fragment gets ONE seal-wait
// deadline, not one per input. One producer seals late (but in time), the
// other never; the fragment must report failure roughly at MaxWait from its
// start — not at lateSeal+MaxWait, the compounding the per-input deadline
// allowed.
func TestStageFragmentSingleSealDeadline(t *testing.T) {
	const (
		sealWait  = 30 * time.Second
		lateStall = 15 * time.Second
		deadStall = 3 * time.Minute
	)
	// Find the join stage's input order so the never-sealing producer is
	// its LAST input — the case where the restarted deadline compounds.
	g := tpch.Gen{SF: 0.002, Seed: 23}
	li := g.Generate()
	orders := g.OrdersFor(li)
	plan := singleNodePlan(t, q12ExactSQL)
	opt, err := engine.Optimize(plan, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema()),
		"orders":   engine.NewMemSource(tpch.OrdersSchema()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stageplan.Decompose(opt, stageplan.Stats{Rows: map[string]int64{
		"lineitem": int64(li.NumRows()), "orders": int64(orders.NumRows()),
	}}, stageplan.Config{Partitions: 2, BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	firstIn, lastIn := -1, -1
	for _, st := range sp.Stages {
		if len(st.Inputs) == 2 {
			firstIn, lastIn = st.Inputs[0].StageID, st.Inputs[1].StageID
		}
	}
	if lastIn < 0 {
		t.Fatal("no two-input join stage in the plan")
	}

	k := simclock.New()
	dep := NewSimulated(k, 31)
	var elapsed time.Duration
	var runErr error
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			switch stage {
			case firstIn:
				return lateStall // seals late but within the fragment deadline
			case lastIn:
				return deadStall // never seals in time
			}
			return 0
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
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
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		scfg.Exchange.MaxWait = sealWait
		scfg.Exchange.Variant.WriteCombining = false
		scfg.ExchangeLevels = 1
		start := p.Now()
		_, _, runErr = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		elapsed = p.Now() - start
	})
	k.Run()
	if runErr == nil {
		t.Fatal("query with a dead producer unexpectedly succeeded")
	}
	if !strings.Contains(runErr.Error(), "never sealed") {
		t.Errorf("error %q does not name the seal barrier", runErr)
	}
	// With one deadline per fragment the failure lands near sealWait; the
	// per-input restart would push it past lateStall+sealWait.
	if limit := lateStall + sealWait; elapsed >= limit {
		t.Errorf("fragment failed after %v, want < %v (per-input deadline compounding)", elapsed, limit)
	}
}

// singleNodePlan parses SQL into a logical plan (test helper).
func singleNodePlan(t *testing.T, sql string) engine.Plan {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestAcquireEpochIncrementsDurably: successive drivers on one deployment
// observe strictly increasing epochs per query ID, independent counters per
// query ID, and the epoch survives driver restarts (it lives in DynamoDB,
// not driver memory).
func TestAcquireEpochIncrementsDurably(t *testing.T) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	table := stagesTableName("fn")
	dep.Dynamo.CreateTable(table)
	d1 := New(dep, env, DefaultConfig())
	q1 := d1.Session().newQuery(env)
	defer q1.close()
	for want := 1; want <= 3; want++ {
		got, err := q1.acquireEpoch(table, "q1")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
	// A fresh driver continues the counter — the whole point of the fence.
	d2 := New(dep, simenv.NewImmediate(), DefaultConfig())
	q2 := d2.Session().newQuery(d2.env)
	defer q2.close()
	if got, err := q2.acquireEpoch(table, "q1"); err != nil || got != 4 {
		t.Fatalf("fresh driver epoch = %d (%v), want 4", got, err)
	}
	// Other query IDs are independent.
	if got, err := q2.acquireEpoch(table, "q2"); err != nil || got != 1 {
		t.Fatalf("q2 epoch = %d (%v), want 1", got, err)
	}
}

// Stale boundary files at the retry's own epoch-less prefix are covered by
// TestStagedStaleArtifactsDoNotPoisonRetry; this checks the fenced prefix
// directly: publishes of different epochs land in disjoint namespaces, so
// an epoch-2 collector never waits on (or reads) epoch-1 files.
func TestEpochPrefixesDisjoint(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	client := s3.NewClient(svc, env)
	mk := func(epoch int) exchange.Options {
		return exchange.Options{
			Variant: exchange.Variant{Levels: 1},
			Buckets: []string{"x"},
			Prefix:  "fn/q1/e" + string(rune('0'+epoch)),
			Poll:    time.Millisecond,
			MaxWait: time.Second,
		}
	}
	b := exchange.Boundary{Stage: 0, Senders: 1, Partitions: 1}
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	old := columnar.NewChunk(schema, 4)
	for i := 0; i < 4; i++ {
		old.Columns[0].AppendInt64(999) // epoch-1 poison rows
	}
	if err := exchange.PublishStage(client, mk(1), b, 0, old, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	fresh := columnar.NewChunk(schema, 2)
	fresh.Columns[0].AppendInt64(1)
	fresh.Columns[0].AppendInt64(2)
	if err := exchange.PublishStage(client, mk(2), b, 0, fresh, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	got, err := exchange.CollectStage(client, mk(2), b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Columns[0].Int64s[0] != 1 {
		t.Fatalf("epoch-2 collector read %d rows (first %v), want the 2 fresh rows",
			got.NumRows(), got.Columns[0].Int64s[0])
	}
}

// TestStagedSubQuorumStallRecovered: one scan worker responds, the rest
// stall — below quorum, so the median policy never arms, and before PR 5's
// no-progress cap this stalled until the driver's global MaxWait. The cap
// window restarts at the healthy worker's response and then expires with no
// further progress, re-invoking exactly the missing workers.
func TestStagedSubQuorumStallRecovered(t *testing.T) {
	const stall = 10 * time.Minute
	k := simclock.New()
	dep := NewSimulated(k, 83)
	var out *columnar.Chunk
	var rep *Report
	var li, orders *columnar.Chunk
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		cfg.Speculate = DefaultSpeculateConfig()
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && workerID != 0 && attempt == 0 {
				return stall // every scan worker but 0 hangs; 1 responds
			}
			return 0
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 67}
		li = g.Generate()
		orders = g.OrdersFor(li)
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
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		scfg.Exchange.Variant.WriteCombining = false
		scfg.ExchangeLevels = 1
		scfg.MaxStageWait = 20 * time.Second
		out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("sub-quorum stall query failed: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, out, want)
	if rep.Duration >= 2*time.Minute {
		t.Errorf("latency %v, want well under 2m (cap fires ~20s after the lone response)", rep.Duration)
	}
	for _, ss := range rep.StageStats {
		// File pruning sizes the scan fleet; whatever it is, the cap must
		// have speculated exactly the stalled workers (all but worker 0).
		if ss.StageID == 1 && ss.Speculated != ss.Workers-1 {
			t.Errorf("scan stage speculated %d of %d workers, want exactly the %d missing ones",
				ss.Speculated, ss.Workers, ss.Workers-1)
		}
	}
}
