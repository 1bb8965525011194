package driver

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/sqs"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/worker"
)

// The staged ≡ single-node suites of the hand-picked queries are cases of
// the harness: each names the plan shape it pins.

// gzipLayout is the goroutine-worker fixture of the staged tests below.
var gzipLayout = layout{Data: 33, LI: 6, Ord: 4, Opts: lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}}

// A two-large-sides join (neither side broadcast) through the exchange, at
// two fleet and partition counts and both write-combining settings: scan,
// scan, join+partial — o_orderpriority's footer range bounds the groups at
// five, so the partials merge on the driver.
func TestShuffleJoinByteIdenticalAcrossConfigs(t *testing.T) {
	c := planCase{Q: q12Exact(), Layout: gzipLayout, Partitions: 2, BroadcastRowLimit: -1, Levels: 1, Basic: true, Goroutines: true}
	runCase(t, c, wantStages(3), wantVariant("1l"))
	c.Layout.LI, c.Layout.Ord, c.Partitions, c.Basic = 9, 3, 5, false
	runCase(t, c, wantStages(3), wantVariant("1l-wc"))
}

// Q12's float revenue shuffled, and broadcast because the planner chose it.
func TestStagedQ12MatchesBroadcastAndReference(t *testing.T) {
	c := planCase{Q: q12Revenue(), Tol: 1e-9, Layout: gzipLayout, BroadcastRowLimit: -1, Goroutines: true}
	runCase(t, c, wantStages(3))
	c.BroadcastRowLimit = 1 << 30
	runCase(t, c, wantStages(1))
}

// Many-to-many, wide-span and composite join keys, shuffled and broadcast, on
// both sides of the merge choice: l_linenumber's seven values merge on the
// driver, l_partkey's 200 000 repartition into a final stage.
func TestStagedByteIdentityKeyShapes(t *testing.T) {
	joins := []sqlJoin{
		{"supplier", "lineitem.l_linenumber = supplier.s_nationkey"},
		{"orders", "lineitem.l_partkey = orders.o_orderkey"},
		{"orders", "lineitem.l_orderkey = orders.o_orderkey AND lineitem.l_returnflag = orders.o_orderpriority"},
	}
	l := gzipLayout
	l.Supp = 3
	for _, j := range joins {
		for key, final := range map[string]int{"l_linenumber": 0, "l_partkey": 1} {
			q := groupBy(key, agg("COUNT(*)", "n"), agg("SUM(l_linenumber)", "lines"))
			q.Joins = []sqlJoin{j}
			c := planCase{Q: q, Layout: l, Partitions: 3, BroadcastRowLimit: -1, Goroutines: true}
			runCase(t, c, wantStages(3+final))
			c.BroadcastRowLimit = 1 << 20
			runCase(t, c, wantStages(1+final))
		}
	}
}

// The partial → final aggregation split over the exchange, no join: the key
// the footers bound (l_suppkey: 20 values) would merge on the driver.
func TestStagedGroupByNoJoinByteIdentical(t *testing.T) {
	q := groupBy("l_partkey", agg("COUNT(*)", "n"), agg("MIN(l_orderkey)", "first_ord"), agg("MAX(l_orderkey)", "last_ord"))
	runCase(t, planCase{Q: q, Layout: layout{Data: 33, LI: 8, Opts: gzipLayout.Opts}, Partitions: 3, Goroutines: true}, wantStages(2))
}

func TestStagedDESDeterministic(t *testing.T) {
	runCase(t, planCase{Q: q12Exact(), Layout: stdLayout, Partitions: 2, BroadcastRowLimit: -1}, wantStages(3))
}

// A global MIN and MAX over a join whose cross-table filter leaves one of the
// two join workers no row: that worker's partial is a row of zeros, which the
// driver's merge must not take for a value (found by FuzzGeneratedPlan: MIN
// answered 0 where one node answers 1). Filtered to nothing at all, the
// merge has no partial to read and answers the one row of zeros one node does.
func TestStagedGlobalMinMaxOverEmptyWorker(t *testing.T) {
	q := sqlQuery{Items: []selItem{agg("MIN(l_linenumber)", "lo"), agg("MAX(l_shipdate)", "last"), agg("COUNT(*)", "n")},
		From: "lineitem", Joins: []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}},
		Where: []string{"l_orderkey + o_custkey < 50"}}
	c := planCase{Q: q, Layout: stdLayout, Partitions: 2, BroadcastRowLimit: -1}
	runCase(t, c, wantStages(3))
	c.Q.Where = []string{"l_orderkey + o_custkey < 0"}
	runCase(t, c, wantStages(3))
}

// A shuffle join without aggregation posts the joined rows themselves.
func TestStagedBareJoinRowsMatch(t *testing.T) {
	q := sqlQuery{Items: []selItem{{Expr: "l_orderkey"}, {Expr: "l_linenumber"}, {Expr: "o_custkey"}}, From: "lineitem",
		Joins:   []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey AND lineitem.l_returnflag = orders.o_orderpriority"}},
		OrderBy: []string{"l_orderkey", "l_linenumber", "o_custkey"}}
	runCase(t, planCase{Q: q, Layout: gzipLayout, Partitions: 2, BroadcastRowLimit: -1, Goroutines: true}, wantStages(3))
}

// Pipelined launch invokes a consumer once each of its producers reported a
// winner, before they seal; wave-gated launch holds every stage back until its
// producers sealed. The pipelined run is on DES: its check compares a
// producer's first seal message, dated on the worker's clock, with the
// consumer's launch, dated on the driver's, and goroutine workers each run a
// clock of their own.
func TestStagedPipelinedMatchesWaves(t *testing.T) {
	c := planCase{Q: q12ByPart(), Layout: gzipLayout, Partitions: 3, BroadcastRowLimit: -1, Goroutines: true}
	runCase(t, c, waveLaunch{})
	c.Goroutines = false
	runCase(t, c, overlapped{})
}

// Grouped on a key the footers cannot bound, with float sums: partial
// aggregate in the scan stage, repartition on the group key, final merge.
func TestStagedGroupByShuffleMatchesSingleNode(t *testing.T) {
	q := groupBy("l_partkey", agg("SUM(l_extendedprice)", "total"), agg("COUNT(*)", "n"), agg("AVG(l_discount)", "ad"))
	c := planCase{Q: q, Tol: 1e-9, Layout: layout{Data: 33, LI: 9, Opts: gzipLayout.Opts}, Partitions: 3, Levels: 1, Goroutines: true}
	for _, basic := range []bool{false, true} {
		c.Basic = basic
		runCase(t, c, wantStages(2), wantWorkers(12))
	}
}

func TestStagedGroupByShuffleDES(t *testing.T) {
	c := planCase{Q: groupBy("l_partkey", agg("COUNT(*)", "n")), Layout: layout{Data: 23, LI: 6, Opts: stdLayout.Opts}, Partitions: 3, Levels: 1}
	for _, basic := range []bool{false, true} {
		c.Basic = basic
		runCase(t, c, wantStages(2))
	}
}

// assertSealLag holds every awaited stage of rep — one that publishes a
// boundary its consumers wait on — to a seal within two Receives and one Put
// of its last winner's seal message, at the slowest latencies the default
// substrate draws (52 ms): the Receive in flight as the message lands, the
// one that takes it, and the ready marker's Put. Never a fleet's launch, and
// never a poll the loop slept out after missing the message.
func assertSealLag(t *testing.T, rep *Report) {
	t.Helper()
	bound := 2*sqs.DefaultAWSConfig(nil, 0).ReceiveLatency.(netmodel.Uniform).Max +
		dynamo.DefaultAWSConfig(nil, 0).WriteLatency.(netmodel.Uniform).Max
	awaited := 0
	for _, ss := range rep.StageStats {
		if ss.Variant == "" {
			continue // the result stage: nobody waits on it
		}
		awaited++
		lag := ss.Sealed - ss.LastWinner
		t.Logf("stage %d (regroup %t): last winner +%v, sealed +%v, lag %v", ss.StageID, ss.Regroup, ss.LastWinner, ss.Sealed, lag)
		if lag < 0 || lag > bound {
			t.Errorf("stage %d (regroup %t) sealed %v after its last winner: want within %v", ss.StageID, ss.Regroup, lag, bound)
		}
	}
	if awaited == 0 {
		t.Error("no awaited stage in the plan")
	}
}

// TestSealNeverBehindLaunch runs q12 at 256 partitions on DES: two 2-worker
// scan stages into single-round boundaries, and the 256-worker join, launched
// on the scans' first winners through the invocation tree — 16
// first-generation Invokes from the requester pool, issued while the scans'
// last seals arrive. Each scan stage must seal as soon as its last worker
// reported. With the launch pass inline in the event loop, and the tree's
// first generation invoked synchronously, they sealed only after the join's
// last Invoke, 344 and 253 ms behind their last winners.
//
// And each join worker waits once and reads once: its four reads — two
// senders of each of its two inputs — start at one instant, one request
// window. Collected input by input, they were two windows, the second a
// ready-marker Get and a first-byte latency behind the first.
func TestSealNeverBehindLaunch(t *testing.T) {
	var rep *Report
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 42)
		dep.EnableTracing(obs.New())
		return dep
	}, DefaultConfig(), fleetLayout, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		_, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, shuffled(256))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 260 || rep.Stages != 3 {
		t.Fatalf("ran %d workers in %d stages, want 260 in 3 (scan, scan, join)", rep.Workers, rep.Stages)
	}
	assertSealLag(t, rep)

	// The join's invocations, tree children included, and the instants at
	// which each one's range reads start.
	var join obs.SpanID
	for _, ss := range rep.StageStats {
		if ss.Variant == "" {
			join = ss.Span
		}
	}
	spans := rep.Trace.Spans()
	starts := map[obs.SpanID][]time.Duration{}
	obs.NewTree(spans).Walk(join, func(s *obs.Span) {
		if s.Kind != obs.KindOp || s.Name != "s3.getrange" {
			return
		}
		inv := s.Parent
		for spans[inv-1].Kind != obs.KindInvoke {
			inv = spans[inv-1].Parent
		}
		starts[inv] = append(starts[inv], s.Start)
	})
	if len(starts) != 256 {
		t.Fatalf("%d join invocations read their inputs, want 256", len(starts))
	}
	for inv, at := range starts {
		if len(at) != 4 || slices.Min(at) != slices.Max(at) {
			t.Fatalf("join invocation %d: %d range reads starting %v, want 4 in one window", inv, len(at), at)
		}
	}
}

// TestStagedKeysFitS3: every object key the 260-worker q12 writes — 256
// partitions, as the fleet_des benchmark runs it — is at most 1 024 bytes,
// S3's key limit. Named with their 257 offsets, as on the driverless
// protocol, the scan senders' write-combined objects had 1 528-byte keys.
// Waves hold the join back until both scans sealed, and as its first worker
// starts, the shard buckets are listed: every object of the query is written
// by then, and none is deleted yet.
func TestStagedKeysFitS3(t *testing.T) {
	var keys []string
	var k *simclock.Kernel
	var dep *Deployment
	cfg := DefaultConfig()
	cfg.testWaveLaunch = true
	listed := false
	cfg.testWorkerDelay = func(stage, _, _ int) time.Duration {
		if stage == 0 && !listed { // the join, the result stage
			listed = true
			k.Go("list", func(p *simclock.Proc) {
				for i := 0; i < exchange.ShardBuckets; i++ {
					entries, err := s3.NewClient(dep.S3, p).List(exchangeBucketName(cfg.FunctionName, i), cfg.FunctionName+"/")
					if err != nil {
						t.Error(err)
					}
					for _, e := range entries {
						keys = append(keys, e.Key)
					}
				}
			})
		}
		return 0
	}
	_, err := onDES(func(kern *simclock.Kernel) *Deployment {
		k, dep = kern, NewSimulated(kern, 42)
		return dep
	}, cfg, fleetLayout, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		_, rep, err := d.RunSQLStaged(p, q12ExactSQL, tables, shuffled(256))
		if err == nil && rep.Workers != 260 {
			err = fmt.Errorf("ran %d workers, want 260", rep.Workers)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no boundary object listed (test premise broken)")
	}
	for _, key := range keys {
		if len(key) > 1024 {
			t.Errorf("a %d-byte key, over S3's 1 024: %.80s…", len(key), key)
		}
	}
}

// TestStagedDrainsStaleResults: seal messages left in the result queue by
// an earlier aborted query must not fail the next staged query — the wave
// collector discards them by query ID and keeps polling for its own.
func TestStagedDrainsStaleResults(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), stdLayout)
	// A leftover message from a query that aborted mid-wave. Queries now
	// collect on per-query queues, so plant the zombie where the next query
	// (q1 on this fresh session) will actually poll: a restarted driver
	// reusing the counter inherits any queue a crashed predecessor left
	// behind under the same name.
	q1Queue := queryQueueName(d.cfg.ResultQueue, "q1")
	d.dep.SQS.CreateQueue(q1Queue)
	stale, err := json.Marshal(worker.Result{QueryID: "q999", WorkerID: 3, Stage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.dep.SQS.Send(env, q1Queue, stale); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, shuffled(2))
	if err != nil {
		t.Fatalf("staged query failed on a stale leftover: %v", err)
	}
	chunksIdentical(t, got, singleNode(t, q12ExactSQL, tpchData(stdLayout.Data).catalog()))
}

// fleetLayout is the fleet_des benchmark's fixture.
var fleetLayout = layout{Data: 42, LI: 4, Ord: 2, Opts: lpq.WriterOptions{RowGroupRows: 65536, Compression: lpq.Gzip}}

// shuffled is the stage config of a query that shuffles every join into
// parts partitions.
func shuffled(parts int) StageConfig {
	scfg := DefaultStageConfig()
	scfg.Partitions, scfg.BroadcastRowLimit = parts, -1
	return scfg
}
