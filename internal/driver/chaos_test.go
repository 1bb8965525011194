package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/worker"
)

// chaosRun is one staged q12 execution on the DES kernel, with everything
// the chaos assertions compare: the result chunk, the report, and the
// billed request counts per substrate.
type chaosRun struct {
	out        *columnar.Chunk
	rep        *Report
	s3Requests int64
	sqsReqs    int64
	injected   int
	// sess is the session the query ran on; err is the query's own error
	// (only tryStagedChaosQ12 lets one through).
	sess *Session
	err  error
}

// runStagedChaosQ12 executes the staged q12 shuffle join on a fresh DES
// kernel against the given deployment and returns the run's observables.
// mut tweaks the driver/stage configs before the query runs. The query must
// succeed.
func runStagedChaosQ12(t *testing.T, mkDep func(k *simclock.Kernel) *Deployment, mut func(cfg *Config, scfg *StageConfig)) chaosRun {
	t.Helper()
	res := tryStagedChaosQ12(t, mkDep, mut)
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res
}

// tryStagedChaosQ12 is runStagedChaosQ12 for scenarios where the query
// itself may fail: its error comes back in the run.
func tryStagedChaosQ12(t *testing.T, mkDep func(k *simclock.Kernel) *Deployment, mut func(cfg *Config, scfg *StageConfig)) chaosRun {
	t.Helper()
	cfg, scfg := desConfig(), shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	if mut != nil {
		mut(&cfg, &scfg)
	}
	var res chaosRun
	sess, err := onDES(mkDep, cfg, stdLayout, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		res.out, res.rep, res.err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		m := d.dep.Meter
		res.s3Requests = m.Count(pricing.LabelS3Read) + m.Count(pricing.LabelS3Write)
		res.sqsReqs = m.Count(pricing.LabelSQS)
		for _, n := range d.dep.Faults.Injected() {
			res.injected += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.sess = sess
	return res
}

// chaosPlanQ12 is the seeded fault mix of the chaos acceptance suite: S3
// transients on both paths, SQS duplicate delivery and receive timeouts,
// DynamoDB throttling on the barrier reads, Lambda cold-start spikes, and
// one mid-run crash. The 2-partition q12 reads too few objects for the 5 %
// GET rule to draw a fault, so the last rule fails the query's 13th S3 GET
// once, whatever the draws: past the planner's six opens and the scan
// workers' five reads, a worker's read inside a request window — on a
// single-round boundary the second of the join worker's four (both inputs in
// one window), on a multi-level one a regroup worker's — retried on its lane
// while the others are in flight. It was the 25th while a scan worker's row
// group took up to three GETs; at one GET a group the 2-partition runs bill
// 19 to 24 GETs, and the 25th was never drawn.
func chaosPlanQ12() faults.Plan {
	return faults.Plan{
		Seed: 20260808,
		Rules: []faults.Rule{
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Rate: 0.05},
			{Op: faults.OpS3Put, Kind: faults.KindTransient, Rate: 0.03},
			{Op: faults.OpS3Put, Kind: faults.KindSlowDown, Rate: 0.02},
			{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Rate: 0.2, Delay: 40 * time.Millisecond},
			{Op: faults.OpSQSReceive, Kind: faults.KindTimeout, Rate: 0.03},
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Rate: 0.05},
			{Op: faults.OpLambda, Kind: faults.KindColdSpike, Rate: 0.1, Delay: 300 * time.Millisecond},
			{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Skip: 5, Count: 1, Delay: 150 * time.Millisecond},
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Skip: 12, Count: 1},
		},
	}
}

// TestChaosZeroFaultPlanIsInert: a chaos deployment with an empty plan — the
// harness's every fault-free run — injects nothing and keeps no injection
// bookkeeping.
func TestChaosZeroFaultPlanIsInert(t *testing.T) {
	runCase(t, planCase{Q: q12Exact(), Layout: stdLayout, Partitions: 2, BroadcastRowLimit: -1})
}

// TestStagedChaosDeterministicByteIdentical: staged q12 under the seeded
// chaos plan, on three exchange variants, returns the fault-free answer,
// replays exactly, and inflates billed requests boundedly.
func TestStagedChaosDeterministicByteIdentical(t *testing.T) {
	for name, levels := range map[string]int{"tree-wc": 0, "flat": 1, "multilevel": 2} {
		t.Run(name, func(t *testing.T) {
			runCase(t, planCase{Q: q12Exact(), Layout: stdLayout, Partitions: 2, BroadcastRowLimit: -1,
				Levels: levels, Basic: name == "flat", Speculate: true, Faults: chaosPlanQ12()}, inflation{})
		})
	}
}

// TestStagedChaosGroupByByteIdentical: the staged aggregation over a key the
// footers cannot bound — scan, repartition, finalize, no join — under the
// same storm, on six files: they were picked when the fixed rule failed the
// 25th GET, which the four-file run (28 S3 requests) never drew. At the 13th
// either layout's storm has a worker read retried.
func TestStagedChaosGroupByByteIdentical(t *testing.T) {
	q := groupBy("l_partkey", agg("COUNT(*)", "n"), agg("MIN(l_orderkey)", "first_ord"), agg("MAX(l_orderkey)", "last_ord"))
	runCase(t, planCase{Q: q, Layout: layout{Data: 11, LI: 6, Opts: stdLayout.Opts}, Partitions: 2, Speculate: true, Faults: chaosPlanQ12()}, wantStages(2), inflation{})
}

// TestStagedChaosCrashRecovery: a worker that crashes on invoke never posts
// anything — the stage stalls until the speculation liveness cap re-invokes
// the silent worker, and the query completes with the exact clean answer.
func TestStagedChaosCrashRecovery(t *testing.T) {
	mut := func(cfg *Config, scfg *StageConfig) {
		cfg.Speculate = true
		scfg.MaxStageWait = 30 * time.Second
	}
	clean := runStagedChaosQ12(t, simulated(71), mut)
	crash := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 9, Rules: []faults.Rule{
			{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: 2, Count: 1},
		}})
	}, mut)
	chunksIdentical(t, crash.out, clean.out)
	if crash.injected != 1 {
		t.Errorf("injected = %d, want exactly the one crash", crash.injected)
	}
	if crash.rep.InjectedFaults[faults.OpLambda+"/"+string(faults.KindCrash)] != 1 {
		t.Errorf("injected faults = %v, want one lambda/crash", crash.rep.InjectedFaults)
	}
	if crash.rep.Duration <= clean.rep.Duration {
		t.Errorf("crash recovery took %v, clean %v — liveness cap never waited", crash.rep.Duration, clean.rep.Duration)
	}
}

// TestChaosTreeParentCrash: a first-generation worker of a tree launch that
// crashes on invoke never invokes its children either, so the whole subtree
// stays silent. The liveness cap re-invokes each of its workers straight from
// the driver, and the query answers like a single node. The 32-worker fleet
// goes through the tree because the deployment starts containers without a
// cold-start delay (warmStarts; TestLaunchMatrix has the arithmetic).
func TestChaosTreeParentCrash(t *testing.T) {
	const fleet, firstGen, perParent = 32, 6, 5 // invoke.TreeFanout(32)
	cfg, scfg := desConfig(), DefaultStageConfig()
	cfg.Speculate = true
	scfg.MaxStageWait = 30 * time.Second
	var out *columnar.Chunk
	var rep *Report
	// The crash skips two Invokes: the first-generation Invokes leave the
	// driver 3.4 ms apart, ahead of any child's, so the third is one of them.
	plan := faults.Plan{Seed: 9, Rules: []faults.Rule{{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: 2, Count: 1}}}
	sess, err := onDES(warmStarts(71, plan), cfg, layout{Data: 33, LI: fleet, Opts: stdLayout.Opts}, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
		out, rep, err = sess.RunSQLStaged(p, launchMatrixSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	chunksIdentical(t, out, singleNode(t, launchMatrixSQL, tpchData(33).catalog()))
	// Launched: the first generation and the children of the five parents
	// that ran. Relaunched: the crashed parent and its five orphans.
	invoked, _ := sess.dep.Lambda.Invocations()
	if want := int64(fleet - perParent + 1 + perParent); invoked != want {
		t.Errorf("%d invocations, want %d: %d launched through the tree, the crashed subtree's %d relaunched",
			invoked, want, fleet-perParent, 1+perParent)
	}
	if got, want := driverInvokes(rep.Trace.Spans()), firstGen+1+perParent; got != want {
		t.Errorf("%d driver-side Invokes, want %d: the first generation and the subtree's relaunches", got, want)
	}
	if rep.InjectedFaults[faults.OpLambda+"/"+string(faults.KindCrash)] != 1 {
		t.Errorf("injected faults = %v, want one lambda/crash", rep.InjectedFaults)
	}
	assertQueryClean(t, sess, rep.QueryID)
}

// TestStagedChaosBudgetExhaustionFailureSeal: a throttle storm against the
// seal-barrier reads exhausts one worker's retry budget. The worker posts a
// typed retryable failure seal, the scheduler re-invokes it through the
// attempt machinery (speculation disabled — the failure path alone must
// recover), and the remaining storm fits the fresh budget.
func TestStagedChaosBudgetExhaustionFailureSeal(t *testing.T) {
	mut := func(cfg *Config, scfg *StageConfig) {
		cfg.RetryBudget = 3
		cfg.testWaveLaunch = true // waves: barrier reads happen in a known order
		scfg.Partitions = 1       // exactly one consumer hits the storm
	}
	clean := runStagedChaosQ12(t, simulated(71), mut)
	// Skip 1 exempts the driver's epoch fence read; the next six dynamo
	// Gets are the consumer's barrier reads. Budget 3 means attempt 0 dies
	// after four throttles (3 retries + the exhausted take), the relaunch
	// absorbs the remaining two.
	storm := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 4, Rules: []faults.Rule{
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Skip: 1, Count: 6},
		}})
	}, mut)
	chunksIdentical(t, storm.out, clean.out)
	if storm.rep.FailureSeals != 1 {
		t.Errorf("failure seals = %d, want 1 (budget exhaustion -> typed seal -> relaunch)", storm.rep.FailureSeals)
	}
	if storm.rep.InjectedFaults["dynamo.Get/throttle"] != 6 {
		t.Errorf("injected = %v, want 6 dynamo.Get throttles", storm.rep.InjectedFaults)
	}
	assertQueryClean(t, storm.sess, storm.rep.QueryID)

	// A storm that outlasts the relaunch too: attempt 0 and attempt 1 each
	// die of exhaustion after four throttles, the relaunch budget is spent,
	// and the query ends in a typed, retryable StageFailure — with the
	// substrate as clean as after a success.
	dead := tryStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 4, Rules: []faults.Rule{
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Skip: 1, Count: 8},
		}})
	}, mut)
	var sf *StageFailure
	if !errors.As(dead.err, &sf) {
		t.Fatalf("err = %v, want a *StageFailure", dead.err)
	}
	if !sf.Retryable || sf.Attempt != 1 || sf.QueryID == "" {
		t.Errorf("stage failure = %+v, want the retryable failure of attempt 1", sf)
	}
	assertQueryClean(t, dead.sess, sf.QueryID)
}

// TestStagedKeyedDeleteListsNothing: a staged q12 at epoch 1 that speculates
// a straggler and relaunches a failure — the budget storm of
// TestStagedChaosBudgetExhaustionFailureSeal on the join worker, and a stall
// on attempt 0 of a lineitem scan worker long enough for its backup to win
// and short enough that it publishes before the join ends — bills no S3 LIST
// at all, answers like the fault-free run, and leaves nothing behind: the
// driver deleted the winners, the speculation loser and the failed attempt by
// key. The stall sits mid-way in the range that keeps both premises, about
// 700 to 1300 ms: a query that gets faster ends before a long-stalled loser
// publishes, so re-tune it when the scan's or the join's latency moves.
func TestStagedKeyedDeleteListsNothing(t *testing.T) {
	const stragglerStall = 1000 * time.Millisecond
	mut := func(cfg *Config, scfg *StageConfig) {
		cfg.Speculate = true
		cfg.RetryBudget = 3
		cfg.testWaveLaunch = true
		scfg.Partitions = 1
	}
	clean := runStagedChaosQ12(t, simulated(71), mut)
	run := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		dep := NewChaos(k, 71, faults.Plan{Seed: 4, Rules: []faults.Rule{
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Skip: 1, Count: 6},
		}})
		dep.EnableTracing(obs.New())
		return dep
	}, func(cfg *Config, scfg *StageConfig) {
		mut(cfg, scfg)
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage == 1 && workerID == 0 && attempt == 0 {
				return stragglerStall
			}
			return 0
		}
	})
	chunksIdentical(t, run.out, clean.out)
	if run.rep.Epoch != 1 || run.rep.Speculated != 1 || run.rep.FailureSeals != 1 {
		t.Fatalf("epoch %d, speculated %d, failure seals %d: want one of each (test premise broken)",
			run.rep.Epoch, run.rep.Speculated, run.rep.FailureSeals)
	}
	// The stalled loser's seal reached the driver, and was discarded, before
	// the query ended: its objects were there for the cleanup to delete.
	if qs := run.rep.Trace.Spans()[run.rep.Span-1]; qs.Tags["loserDiscards"] == "" {
		t.Fatalf("the speculation loser published after the query (test premise broken): tags %v", qs.Tags)
	}
	if run.rep.Cost.S3List != 0 {
		t.Errorf("the query billed %d S3 LISTs, want none", run.rep.Cost.S3List)
	}
	if n := run.sess.dep.Meter.Count(pricing.LabelS3List); n != 0 {
		t.Errorf("the deployment billed %d S3 LISTs, want none", n)
	}
	assertQueryClean(t, run.sess, run.rep.QueryID)
}

// TestSingleScopeDuplicateResultDelivery: an at-least-once result queue that
// redelivers EVERY worker result must not corrupt single-scope collection —
// the scheduler keeps the first seal per worker and discards the rest. Rate
// 0 with no Count bound fires on every Send: every result message is
// delivered twice, the copy 5 ms later — mid-drain.
func TestSingleScopeDuplicateResultDelivery(t *testing.T) {
	q := groupBy("l_suppkey", agg("COUNT(*)", "n"), agg("MIN(l_orderkey)", "first_ord"))
	runCase(t, planCase{Q: q, Layout: layout{Data: 11, LI: 3, Opts: stdLayout.Opts}, Default: true,
		Faults: faults.Plan{Seed: 1, Rules: []faults.Rule{{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Delay: 5 * time.Millisecond}}}})
}

// TestSingleScopeChaosFailureSealRelaunched: an S3 500 storm over the first
// worker reads of a single-scope q6 exhausts one worker's (deliberately
// tiny) retry budget. The worker posts a typed retryable failure seal; the
// scheduler re-invokes the fragment as the next attempt — speculation off,
// the failure path alone recovers — and the answer is byte-identical to the
// fault-free run. Before single-scope queries ran on the stage scheduler
// their collector failed the query on any worker error, retryable or not.
func TestSingleScopeChaosFailureSealRelaunched(t *testing.T) {
	run := func(mkDep func(k *simclock.Kernel) *Deployment) (*columnar.Chunk, *Report) {
		cfg := desConfig()
		cfg.RetryBudget = 2
		var out *columnar.Chunk
		var rep *Report
		sess, err := onDES(mkDep, cfg, layout{Data: 11, LI: 4, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
			out, rep, err = d.RunSQL(p, q6SQL, "lineitem", tables["lineitem"])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		assertQueryClean(t, sess, rep.QueryID)
		return out, rep
	}
	clean, cleanRep := run(simulated(71))
	// Skip 4 exempts the planner's opens, one per file; the storm then covers
	// the first three worker reads. Q6's year leaves one file to scan and so
	// one worker: its budget of 2 absorbs two faults, it takes the third and
	// dies of exhaustion, and its relaunch reads in the clear.
	storm, stormRep := run(func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 3, Rules: []faults.Rule{
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Skip: 4, Count: 3},
		}})
	})
	chunksIdentical(t, storm, clean)
	if cleanRep.FailureSeals != 0 {
		t.Errorf("fault-free run absorbed %d failure seals", cleanRep.FailureSeals)
	}
	if stormRep.FailureSeals == 0 {
		t.Errorf("no failure seal absorbed: injected %v, worker retries %d", stormRep.InjectedFaults, stormRep.WorkerRetries)
	}
}

// TestCorruptEpochItemRefused: an epoch item that reads below 1, written at a
// negative instant, or without its instant at all, is corrupt. Taken for epoch 0, a run fenced nothing
// and its cleanup, which skips epoch 0, left its boundary objects behind.
func TestCorruptEpochItemRefused(t *testing.T) {
	for _, v := range []string{"-1@0", "0", "2@-1", "7"} {
		d, env, tables := goSession(t, DefaultConfig(), stdLayout)
		table := stagesTableName(d.cfg.FunctionName)
		d.dep.Dynamo.CreateTable(table)
		if err := d.dep.Dynamo.Put(env, table, epochKey("q1"), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, shuffled(2)); err == nil || !strings.Contains(err.Error(), "corrupt epoch item") {
			t.Errorf("epoch item %q: err = %v, want the corrupt item refused", v, err)
		}
		if n, _ := d.dep.Lambda.Invocations(); n != 0 {
			t.Errorf("epoch item %q: %d workers invoked", v, n)
		}
		assertQueryClean(t, d, "q1")
	}
}

// TestEpochSweepTTL: the lazy sweep in acquireEpoch deletes epoch fence
// items older than epochTTL of virtual time and keeps fresh ones. It reclaims what it
// orphans: the boundary debris under an expired query's prefix and its ready
// markers go with its fence, since the next run of that ID starts at epoch 1,
// lists nothing and waits on markers of its own names; debris and markers of
// an ID whose fence it keeps, or that has none, stay. So a real query rerun
// after its fence expired answers right: with the markers left behind, its
// consumers took the first run's manifests and read objects the sweep had
// deleted.
func TestEpochSweepTTL(t *testing.T) {
	k := simclock.New()
	dep := NewSimulated(k, 7)
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		d := NewSession(dep, cfg)
		// sweepNext makes the session's next acquire the one that sweeps.
		sweepNext := func() { d.epochAcquires = epochGCInterval - 1 }
		q := d.newQuery(p)
		defer q.close()
		table := stagesTableName(cfg.FunctionName)
		dep.Dynamo.CreateTable(table)
		if e, err := q.acquireEpoch(table, "qA"); err != nil || e != 1 {
			t.Errorf("qA epoch = %d, %v, want 1", e, err)
		}

		p.Sleep(epochTTL + time.Hour) // the item is now past the TTL

		// Debris of the fenced run, in two shard buckets, and their ready
		// markers; and of qB, which has no fence yet.
		buckets := d.InstallExchange()
		client := s3.NewClient(dep.S3, p)
		debris := func(queryID string) []string {
			return []string{queryPrefix(cfg.FunctionName, queryID) + "e1/s1/snd0-a0", queryPrefix(cfg.FunctionName, queryID) + "e7/s2/p0/a1-snd3"}
		}
		for _, id := range []string{"qA", "qB"} {
			for i, key := range debris(id) {
				if err := client.Put(buckets[i], key, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if err := dep.Dynamo.Put(p, table, worker.SealKey(id, 1, i+1), []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}

		sweepNext()
		if e, err := q.acquireEpoch(table, "qB"); err != nil || e != 1 {
			t.Errorf("qB epoch = %d, %v, want 1", e, err)
		}
		// The sweep that ran inside that acquire collected qA, its debris
		// first.
		if _, err := dep.Dynamo.Get(p, table, epochKey("qA")); !errors.Is(err, dynamo.ErrNoSuchItem) {
			t.Errorf("qA fence survived the sweep: %v", err)
		}
		for _, id := range []string{"qA", "qB"} {
			for i, key := range debris(id) {
				_, _, err := client.Get(buckets[i], key, 1)
				if gone := errors.Is(err, s3.ErrNoSuchKey); gone != (id != "qB") {
					t.Errorf("%s debris %s: Get = %v after the sweep", id, key, err)
				}
				_, err = dep.Dynamo.Get(p, table, worker.SealKey(id, 1, i+1))
				if gone := errors.Is(err, dynamo.ErrNoSuchItem); gone != (id != "qB") {
					t.Errorf("%s ready marker %s: Get = %v after the sweep", id, worker.SealKey(id, 1, i+1), err)
				}
			}
		}
		// qB was just written — the next sweep must keep it, and its
		// counter keeps fencing.
		sweepNext()
		if e, err := q.acquireEpoch(table, "qB"); err != nil || e != 2 {
			t.Errorf("qB epoch after sweep = %d, %v, want 2 (item retained)", e, err)
		}
		// An expired fence restarts at 1: the TTL exceeds any worker
		// lifetime, so no zombie of the swept run can still be alive.
		if e, err := q.acquireEpoch(table, "qA"); err != nil || e != 1 {
			t.Errorf("qA epoch after expiry = %d, %v, want 1", e, err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}

	// q1 again, past the TTL, on a fresh session whose first acquire sweeps:
	// the sweep collects its fence, and the rerun runs at epoch 1 under the
	// first run's names.
	cfg := desConfig()
	_, err := onDES(simulated(7), cfg, stdLayout, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		for run := 0; run < 2; run++ {
			out, rep, err := d.RunSQLStaged(p, q12ExactSQL, tables, shuffled(2))
			if err != nil {
				return fmt.Errorf("run %d: %w", run, err)
			}
			if rep.Epoch != 1 {
				return fmt.Errorf("run %d at epoch %d, want 1", run, rep.Epoch)
			}
			if err := sameRows(out, singleNode(t, q12ExactSQL, tpchData(stdLayout.Data).catalog()), 0); err != nil {
				return fmt.Errorf("run %d: %w", run, err)
			}
			p.Sleep(epochTTL + time.Hour)
			d = NewSession(d.dep, cfg)
			if err := d.Install(); err != nil {
				return err
			}
			d.epochAcquires = epochGCInterval - 1
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
