package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
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
// the same q1 namespace. The zombie wakes AFTER driver 2's launch,
// publishes its boundary files and posts its seal mid-retry — and the retry
// must not notice: the zombie's artifacts all carry epoch 1, the retry runs
// as epoch 2.
func runStagedZombieSeal(t *testing.T, wc bool, levels int) (*columnar.Chunk, *Report) {
	t.Helper()
	const zombieStall = 28 * time.Second
	base := desConfig()
	// Stage 1 is the lineitem scan (stage 0 is the join): a scan worker makes
	// the sharpest zombie — woken, it immediately publishes its boundary files
	// and posts its seal, no barriers in between. Worker 0 always exists,
	// whatever file pruning leaves of the lineitem fleet.
	cfg1 := base
	cfg1.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		if stage == 1 && workerID == 0 && attempt == 0 {
			return zombieStall
		}
		return 0
	}
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	// Driver 1's consumers give up well before the zombie wakes, so the abort
	// happens first and its error seals die with its queue before the retry
	// launches.
	scfg.Exchange.MaxWait = 20 * time.Second
	scfg.Exchange.Variant.WriteCombining = wc
	scfg.Exchange.Variant.Levels = levels
	var out *columnar.Chunk
	var rep *Report
	// Six lineitem files, not four: the poison query's date window prunes four
	// files to one, and a lone stalled scan worker reports no winner, so the
	// consumers — launched on their producers' first winners — would launch
	// only once the zombie woke, and the aborted run would succeed. Six leave
	// the lineitem scan two workers: worker 1's winner launches the join,
	// whose wait on worker 0 times out.
	d1, err := onDES(simulated(97), cfg1, layout{Data: 41, LI: 6, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d1 *Session, tables TableFiles) (err error) {
		d1Start := p.Now()
		if _, _, err := d1.RunSQLStaged(p, q12PoisonSQL, tables, scfg); err == nil {
			return errors.New("aborted run unexpectedly succeeded (test premise broken)")
		}
		// The retry: fresh driver, query numbering restarts at q1. The zombie
		// of the aborted run is still asleep.
		if d1Start+zombieStall <= p.Now() {
			return fmt.Errorf("zombie woke at ≤%v, before the retry's start at %v (test premise broken)", d1Start+zombieStall, p.Now())
		}
		// Stall the retry's own (stage 1, worker 1) past the zombie's post, so
		// the zombie's stale seal arrives while the retry is still waiting for
		// that very worker — the exact interleaving that would have sealed the
		// scan stage with the poison run's boundary data.
		cfg2 := base
		cfg2.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && workerID == 1 && attempt == 0 {
				return 15 * time.Second
			}
			return 0
		}
		d2 := NewSession(d1.dep, cfg2)
		if err := d2.Install(); err != nil {
			return err
		}
		out, rep, err = d2.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatalf("wc=%v: retry poisoned: %v", wc, err)
	}

	// The zombie's seal must have been received — and discarded — during
	// the retry's collection window: nothing may linger in the result
	// queue once the simulation drained.
	dep := d1.dep
	if n := dep.SQS.Len(DefaultConfig().ResultQueue); n != 0 {
		t.Errorf("wc=%v: %d messages left in the result queue (zombie posted outside the retry's window?)", wc, n)
	}
	// And the zombie's boundary files (epoch-1 debris) fell to the retry's
	// epoch > 1 sweep: the whole q1 namespace is empty, every epoch.
	client := s3.NewClient(dep.S3, simenv.NewImmediate())
	for _, b := range bucketNamesFor(DefaultConfig().FunctionName, exchange.ShardBuckets) {
		entries, err := client.List(b, DefaultConfig().FunctionName+"/q1")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("wc=%v: %d zombie boundary objects left in %s (first: %s)", wc, len(entries), b, entries[0].Key)
		}
	}
	return out, rep
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
// boundary files after the retry launched, and the retry's result stays
// byte-identical to a clean single-node run — at both exchange variants —
// with the whole boundary namespace (the zombie's epoch-1 debris included)
// swept afterwards.
func TestStagedZombieSealDiscarded(t *testing.T) {
	want := singleNode(t, q12ExactSQL, tpchData(41).catalog())
	for _, wc := range []bool{false, true} {
		out, rep := runStagedZombieSeal(t, wc, 1)
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
	_, a := runStagedZombieSeal(t, true, 1)
	_, b := runStagedZombieSeal(t, true, 1)
	if a.Duration != b.Duration || a.TotalCost != b.TotalCost {
		t.Errorf("zombie scenario not deterministic: (%v,%v) vs (%v,%v)", a.Duration, a.TotalCost, b.Duration, b.TotalCost)
	}
}

// TestStagedSealFromUnknownWorkerDiscarded: seal messages that pass the epoch
// fence — right query ID, epoch and stage, posted mid-run — but name a
// worker the stage does not have are strays like
// any other. Counted as a winner, the success seal would seal the scan stage
// while its stalled real worker is still out; relaunched, the retryable
// failure seal would index the stage's payloads out of range.
func TestStagedSealFromUnknownWorkerDiscarded(t *testing.T) {
	const stall = 5 * time.Second
	run := func(strays []resultMsg) (*columnar.Chunk, *Report) {
		cfg := desConfig()
		// Hold the lineitem scan (stage 1) open until after the strays.
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && workerID == 1 {
				return stall
			}
			return 0
		}
		scfg := shuffled(2)
		scfg.Exchange.Poll = 100 * time.Millisecond
		var out *columnar.Chunk
		var rep *Report
		_, err := onDES(func(k *simclock.Kernel) *Deployment {
			dep := NewSimulated(k, 61)
			dep.EnableTracing(obs.New())
			return dep
		}, cfg, layout{Data: 41, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
			p.Kernel().GoAt(p.Now()+stall-time.Second, "stray", func(sp *simclock.Proc) {
				for _, rm := range strays {
					body, err := json.Marshal(rm)
					if err == nil {
						err = d.dep.SQS.Send(sp, queryQueueName(cfg.ResultQueue, "q1"), body)
					}
					if err != nil {
						t.Error(err)
					}
				}
			})
			out, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
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
	cfg := desConfig()
	cfg.Speculate = DefaultSpeculateConfig()
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		if stage == 1 && attempt == 0 {
			return stall // the whole first-attempt fleet of the lineitem scan
		}
		return 0
	}
	rep := stalledQ12(t, 59, cfg, layout{Data: 23, LI: 4, Ord: 2, Opts: stdLayout.Opts})
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
	data := tpchData(23)
	opt, err := engine.Optimize(singleNodePlan(t, q12ExactSQL), data.catalog())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stageplan.Decompose(opt, stageplan.Stats{Rows: map[string]int64{
		"lineitem": int64(data.lineitem.NumRows()), "orders": int64(data.orders.NumRows()),
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

	// Worker 0 of each producer stalls, worker 1 does not: a consumer launches
	// on its producers' first winners, so with whole fleets stalled the join
	// would launch after the dead producer woke, and never wait at all.
	cfg := desConfig()
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		switch {
		case workerID != 0:
		case stage == firstIn:
			return lateStall // seals late but within the fragment deadline
		case stage == lastIn:
			return deadStall // never seals in time
		}
		return 0
	}
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	scfg.Exchange.MaxWait = sealWait
	scfg.Exchange.Variant.WriteCombining = false
	scfg.Exchange.Variant.Levels = 1
	var elapsed time.Duration
	var runErr error
	_, err = onDES(simulated(31), cfg, layout{Data: 23, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		start := p.Now()
		_, _, runErr = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	d1 := NewSession(dep, DefaultConfig())
	q1 := d1.newQuery(env)
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
	d2 := NewSession(dep, DefaultConfig())
	q2 := d2.newQuery(simenv.NewImmediate())
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
	cfg := desConfig()
	cfg.Speculate = DefaultSpeculateConfig()
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		if stage == 1 && workerID != 0 && attempt == 0 {
			return stall // every scan worker but 0 hangs; 1 responds
		}
		return 0
	}
	rep := stalledQ12(t, 83, cfg, layout{Data: 67, LI: 4, Ord: 2, Opts: stdLayout.Opts})
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

// stalledQ12 runs staged q12 on basic single-round boundaries under a 20 s
// all-stragglers cap, on a DES deployment of seed, and requires the answer
// of a single node.
func stalledQ12(t *testing.T, seed int64, cfg Config, l layout) *Report {
	t.Helper()
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	scfg.Exchange.Variant.WriteCombining = false
	scfg.Exchange.Variant.Levels = 1
	scfg.MaxStageWait = 20 * time.Second
	var out *columnar.Chunk
	var rep *Report
	_, err := onDES(simulated(seed), cfg, l, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		out, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatalf("stalled query failed: %v", err)
	}
	chunksIdentical(t, out, singleNode(t, q12ExactSQL, tpchData(l.Data).catalog()))
	return rep
}
