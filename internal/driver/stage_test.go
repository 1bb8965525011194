package driver

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/tpch"
)

// q12ExactSQL is the Q12-shaped two-large-sides join with integer-exact
// aggregates only (COUNT, SUM over BIGINT, MIN/MAX), so distributed results
// are byte-identical to single-node execution regardless of merge order.
const q12ExactSQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_linenumber) AS lines,
       MIN(l_shipdate) AS first_ship, MAX(l_shipdate) AS last_ship
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

// q12RevenueSQL is the same shape with the float revenue sum of the real
// Q12 workload.
const q12RevenueSQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

// q12ByPartSQL is q12ExactSQL grouped on l_partkey, whose footer range
// (200 000 values) bounds nothing: the aggregate repartitions, so the DAG is
// scan, scan → join+partial → final where q12ExactSQL's five priorities merge
// on the driver.
const q12ByPartSQL = `
SELECT l_partkey, COUNT(*) AS n, SUM(l_linenumber) AS lines,
       MIN(l_shipdate) AS first_ship, MAX(l_shipdate) AS last_ship
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY l_partkey
ORDER BY l_partkey`

// stagedSetup uploads LINEITEM and ORDERS as lpq files on a functional
// deployment.
func stagedSetup(t *testing.T, sf float64, liFiles, ordFiles int) (*Session, simenv.Env, TableFiles, *columnar.Chunk, *columnar.Chunk) {
	t.Helper()
	dep := NewLocal()
	env := simenv.NewImmediate()
	d := NewSession(dep, DefaultConfig())
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: sf, Seed: 33}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := d.UploadTable(env, "tpch", "lineitem", li, liFiles, lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip})
	if err != nil {
		t.Fatal(err)
	}
	ordRefs, err := d.UploadTable(env, "tpch", "orders", orders, ordFiles, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return d, env, TableFiles{"lineitem": liRefs, "orders": ordRefs}, li, orders
}

func chunksIdentical(t *testing.T, got, want *columnar.Chunk) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema = %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for j := range want.Columns {
		g, w := got.Columns[j], want.Columns[j]
		for i := 0; i < want.NumRows(); i++ {
			switch w.Type {
			case columnar.Int64:
				if g.Int64s[i] != w.Int64s[i] {
					t.Fatalf("col %d row %d = %d, want %d", j, i, g.Int64s[i], w.Int64s[i])
				}
			case columnar.Float64:
				if math.Float64bits(g.Float64s[i]) != math.Float64bits(w.Float64s[i]) {
					t.Fatalf("col %d row %d = %v, want %v", j, i, g.Float64s[i], w.Float64s[i])
				}
			case columnar.Bool:
				if g.Bools[i] != w.Bools[i] {
					t.Fatalf("col %d row %d = %v, want %v", j, i, g.Bools[i], w.Bools[i])
				}
			}
		}
	}
}

func singleNode(t *testing.T, sql string, cat engine.Catalog) *columnar.Chunk {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShuffleJoinByteIdenticalAcrossConfigs is the acceptance-criterion
// test: a two-large-sides join (neither side broadcastable) runs end-to-end
// through stageplan + the exchange and is byte-identical to single-node
// engine.Execute at multiple worker/partition configurations and exchange
// variants.
func TestShuffleJoinByteIdenticalAcrossConfigs(t *testing.T) {
	configs := []struct {
		liFiles, ordFiles, parts int
		wc                       bool
	}{
		{liFiles: 6, ordFiles: 4, parts: 2, wc: false},
		{liFiles: 9, ordFiles: 3, parts: 5, wc: true},
	}
	for _, tc := range configs {
		d, env, tables, li, orders := stagedSetup(t, 0.002, tc.liFiles, tc.ordFiles)
		cfg := DefaultStageConfig()
		cfg.Partitions = tc.parts
		cfg.BroadcastRowLimit = -1 // force shuffle on every join
		cfg.Exchange.Variant.WriteCombining = tc.wc
		cfg.Exchange.Variant.Levels = 1

		got, rep, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := singleNode(t, q12ExactSQL, engine.Catalog{
			"lineitem": engine.NewMemSource(tpch.Schema(), li),
			"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
		})
		chunksIdentical(t, got, want)

		// o_orderpriority's footer range bounds the groups at 5, so the join
		// stage's partials merge on the driver: no final stage.
		if rep.Stages != 3 {
			t.Errorf("%+v: stages = %d, want 3 (scan, scan, join+partial)", tc, rep.Stages)
		}
		// Pruning-aware fan-out: the l_receiptdate range rules out whole
		// lineitem files by footer statistics, so the lineitem scan fleet
		// is strictly smaller than one-worker-per-file; orders is
		// unfiltered and keeps every file, and the join stage runs one
		// worker per partition.
		maxWorkers := tc.liFiles + tc.ordFiles + tc.parts
		minWorkers := 1 + tc.ordFiles + tc.parts
		if rep.Workers < minWorkers || rep.Workers >= maxWorkers {
			t.Errorf("%+v: workers = %d, want in [%d, %d) (pruned lineitem fleet)",
				tc, rep.Workers, minWorkers, maxWorkers)
		}
		// The shuffle must actually have gone through S3 and the barriers
		// through DynamoDB.
		if rep.Cost.S3Put <= 0 {
			t.Errorf("%+v: no exchange writes recorded", tc)
		}
		if rep.Cost.DynamoWrites <= 0 {
			t.Errorf("%+v: no seal markers recorded", tc)
		}
	}
}

// TestStagedQ12MatchesBroadcastAndReference runs the float-revenue Q12
// shape through both the shuffle path and the broadcast path and checks
// both against the scalar reference.
func TestStagedQ12MatchesBroadcastAndReference(t *testing.T) {
	d, env, tables, li, orders := stagedSetup(t, 0.002, 6, 4)
	ref := tpch.Q12Reference(li, orders)

	check := func(label string, out *columnar.Chunk) {
		t.Helper()
		if out.NumRows() != len(ref) {
			t.Fatalf("%s: groups = %d, want %d", label, out.NumRows(), len(ref))
		}
		for i, r := range ref {
			if out.Column("o_orderpriority").Int64s[i] != r.Priority {
				t.Fatalf("%s: row %d priority mismatch", label, i)
			}
			if out.Column("n").Int64s[i] != r.Count {
				t.Errorf("%s: row %d count = %d, want %d", label, i, out.Column("n").Int64s[i], r.Count)
			}
			g := out.Column("total").Float64s[i]
			if math.Abs(g-r.Total) > 1e-6*math.Max(1, r.Total) {
				t.Errorf("%s: row %d total = %v, want %v", label, i, g, r.Total)
			}
		}
	}

	// Shuffle: neither side broadcastable.
	cfg := DefaultStageConfig()
	cfg.BroadcastRowLimit = -1
	shuffled, rep, err := d.RunSQLStaged(env, q12RevenueSQL, tables, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("shuffle", shuffled)
	if rep.Stages != 3 {
		t.Errorf("shuffle stages = %d, want 3 (scan, scan, join+partial; ≤ 5 groups merge on the driver)", rep.Stages)
	}

	// Broadcast: the same SQL with ORDERS as a driver-resident table.
	bcast, _, err := d.runSQL(env, q12RevenueSQL, TableFiles{"lineitem": tables["lineitem"]},
		map[string]*columnar.Chunk{"orders": orders}, DefaultStageConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("broadcast", bcast)

	// Staged with a generous row limit: the planner itself picks broadcast
	// for ORDERS and the plan collapses to one scan+join+partial stage.
	cfg2 := DefaultStageConfig()
	cfg2.BroadcastRowLimit = 1 << 30
	picked, rep2, err := d.RunSQLStaged(env, q12RevenueSQL, tables, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	check("staged-broadcast", picked)
	if rep2.Stages != 1 {
		t.Errorf("staged-broadcast stages = %d, want 1", rep2.Stages)
	}
}

// keyShapeTables builds synthetic join inputs exercising one key shape.
func keyShapeTables(shape string, n int) (left, right *columnar.Chunk) {
	ls := columnar.NewSchema(
		columnar.Field{Name: "lk", Type: columnar.Int64},
		columnar.Field{Name: "lk2", Type: columnar.Int64},
		columnar.Field{Name: "lv", Type: columnar.Int64},
	)
	rs := columnar.NewSchema(
		columnar.Field{Name: "rk", Type: columnar.Int64},
		columnar.Field{Name: "rk2", Type: columnar.Int64},
		columnar.Field{Name: "rv", Type: columnar.Int64},
	)
	l := columnar.NewChunk(ls, n)
	r := columnar.NewChunk(rs, n)
	for i := 0; i < n; i++ {
		var lk, rk int64
		switch shape {
		case "duplicate":
			lk, rk = int64(i%7), int64(i%5) // many-to-many matches
		case "sparse":
			lk = int64(i) * 1_000_003 // wide span: open-addressing mode
			rk = int64(n-1-i) * 1_000_003
		default: // composite uses (k, k2) pairs
			lk, rk = int64(i%13), int64(i%11)
		}
		l.Columns[0].AppendInt64(lk)
		l.Columns[1].AppendInt64(int64(i % 3))
		l.Columns[2].AppendInt64(int64(i) * 1_000_003) // wide span: no footer bound on the groups
		r.Columns[0].AppendInt64(rk)
		r.Columns[1].AppendInt64(int64(i % 3))
		r.Columns[2].AppendInt64(int64(10 * i))
	}
	return l, r
}

// TestStagedByteIdentityKeyShapes compares shuffle, staged-broadcast and
// single-node execution on duplicate, sparse and composite join keys —
// all integer aggregates, so every path must agree byte-for-byte — and on
// both sides of the planner's merge choice: lk2 spans three values, so its
// partials merge on the driver; lv spans 600 million, so they repartition
// into a final stage.
func TestStagedByteIdentityKeyShapes(t *testing.T) {
	joins := map[string]string{
		"duplicate": "ltab.lk = rtab.rk",
		"sparse":    "ltab.lk = rtab.rk",
		"composite": "ltab.lk = rtab.rk AND ltab.lk2 = rtab.rk2",
	}
	for _, shape := range []string{"duplicate", "sparse", "composite"} {
		left, right := keyShapeTables(shape, 600)

		dep := NewLocal()
		env := simenv.NewImmediate()
		d := NewSession(dep, DefaultConfig())
		if err := d.Install(); err != nil {
			t.Fatal(err)
		}
		lrefs, err := d.UploadTable(env, "tpch", "ltab", left, 4, lpq.WriterOptions{RowGroupRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		rrefs, err := d.UploadTable(env, "tpch", "rtab", right, 3, lpq.WriterOptions{RowGroupRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		tables := TableFiles{"ltab": lrefs, "rtab": rrefs}

		// final is the final-merge stage a repartitioned aggregate adds.
		for key, final := range map[string]int{"lk2": 0, "lv": 1} {
			sql := "SELECT " + key + ", COUNT(*) AS n, SUM(lv) AS sl, SUM(rv) AS sr FROM ltab INNER JOIN rtab ON " +
				joins[shape] + " GROUP BY " + key + " ORDER BY " + key
			want := singleNode(t, sql, engine.Catalog{
				"ltab": engine.NewMemSource(left.Schema, left),
				"rtab": engine.NewMemSource(right.Schema, right),
			})

			cfg := DefaultStageConfig()
			cfg.Partitions = 3
			cfg.BroadcastRowLimit = -1
			shuffled, rep, err := d.RunSQLStaged(env, sql, tables, cfg)
			if err != nil {
				t.Fatalf("%s/%s shuffle: %v", shape, key, err)
			}
			chunksIdentical(t, shuffled, want)
			if rep.Stages != 3+final {
				t.Errorf("%s/%s: shuffle stages = %d, want %d", shape, key, rep.Stages, 3+final)
			}

			cfg2 := DefaultStageConfig()
			cfg2.BroadcastRowLimit = 1 << 20
			bcast, rep2, err := d.RunSQLStaged(env, sql, tables, cfg2)
			if err != nil {
				t.Fatalf("%s/%s staged-broadcast: %v", shape, key, err)
			}
			chunksIdentical(t, bcast, want)
			if rep2.Stages != 1+final {
				t.Errorf("%s/%s: staged-broadcast stages = %d, want %d", shape, key, rep2.Stages, 1+final)
			}
		}
	}
}

// TestStagedGroupByNoJoinByteIdentical: the partial→final aggregation split
// over the exchange (no join involved) is byte-identical to single-node. The
// key is l_partkey, whose 200 000-value footer range bounds nothing: a key the
// footers bound (l_suppkey here: 20 values) would merge on the driver.
func TestStagedGroupByNoJoinByteIdentical(t *testing.T) {
	const sql = `
SELECT l_partkey, COUNT(*) AS n, MIN(l_orderkey) AS first_ord, MAX(l_orderkey) AS last_ord
FROM lineitem
GROUP BY l_partkey ORDER BY l_partkey`
	d, env, tables, li, _ := stagedSetup(t, 0.002, 8, 1)
	cfg := DefaultStageConfig()
	cfg.Partitions = 3
	got, rep, err := d.RunSQLStaged(env, sql, TableFiles{"lineitem": tables["lineitem"]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, sql, engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), li)})
	chunksIdentical(t, got, want)
	if rep.Stages != 2 {
		t.Errorf("stages = %d, want 2", rep.Stages)
	}
}

// TestStagedDESDeterministic runs the shuffle join on the DES kernel twice:
// identical results, virtual duration and cost — worker code spawned no
// goroutines and every barrier resolved in virtual time.
func TestStagedDESDeterministic(t *testing.T) {
	run := func() (int64, time.Duration, float64) {
		k := simclock.New()
		dep := NewSimulated(k, 71)
		var firstCount int64
		var dur time.Duration
		var cost float64
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			g := tpch.Gen{SF: 0.002, Seed: 11}
			li := g.Generate()
			orders := g.OrdersFor(li)
			liRefs, err := d.UploadTable(p, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			ordRefs, err := d.UploadTable(p, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = 2
			scfg.BroadcastRowLimit = -1
			scfg.Exchange.Poll = 100 * time.Millisecond
			out, rep, err := d.RunSQLStaged(p, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
			if err != nil {
				t.Error(err)
				return
			}
			if out.NumRows() == 0 {
				t.Error("empty result")
				return
			}
			firstCount = out.Column("n").Int64s[0]
			dur = rep.Duration
			cost = rep.TotalCost
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return firstCount, dur, cost
	}
	n1, d1, c1 := run()
	n2, d2, c2 := run()
	if n1 != n2 || d1 != d2 || c1 != c2 {
		t.Errorf("staged DES run not deterministic: (%d,%v,%v) vs (%d,%v,%v)", n1, d1, c1, n2, d2, c2)
	}
	if n1 <= 0 {
		t.Errorf("first group count = %d", n1)
	}
	if d1 <= 0 || d1 > 5*time.Minute {
		t.Errorf("virtual duration = %v", d1)
	}
}

// TestStagedBareJoinRowsMatch: a shuffle join without aggregation posts the
// joined rows themselves; after the driver-side ORDER BY the row multiset
// must match single-node execution.
func TestStagedBareJoinRowsMatch(t *testing.T) {
	const sql = `
SELECT lv, rv
FROM ltab INNER JOIN rtab ON ltab.lk = rtab.rk AND ltab.lk2 = rtab.rk2
ORDER BY lv, rv`
	left, right := keyShapeTables("composite", 200)
	dep := NewLocal()
	env := simenv.NewImmediate()
	d := NewSession(dep, DefaultConfig())
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	lrefs, err := d.UploadTable(env, "tpch", "ltab", left, 3, lpq.WriterOptions{RowGroupRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	rrefs, err := d.UploadTable(env, "tpch", "rtab", right, 2, lpq.WriterOptions{RowGroupRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStageConfig()
	cfg.Partitions = 2
	cfg.BroadcastRowLimit = -1
	got, rep, err := d.RunSQLStaged(env, sql, TableFiles{"ltab": lrefs, "rtab": rrefs}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, sql, engine.Catalog{
		"ltab": engine.NewMemSource(left.Schema, left),
		"rtab": engine.NewMemSource(right.Schema, right),
	})
	chunksIdentical(t, got, want)
	if rep.Stages != 3 {
		t.Errorf("stages = %d, want 3 (scan, scan, join)", rep.Stages)
	}
}

// TestStagedPipelinedMatchesWaves: pipelined launch (consumers invoked
// before their producers seal) and wave-gated launch produce byte-identical
// results, and the per-stage timings show the launches actually overlapped:
// pipelined invokes every stage before the first seal, waves hold consumers
// back until their producers sealed.
func TestStagedPipelinedMatchesWaves(t *testing.T) {
	d, env, tables, li, orders := stagedSetup(t, 0.002, 6, 3)
	want := singleNode(t, q12ByPartSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	run := func(pipelined bool) *Report {
		cfg := DefaultStageConfig()
		cfg.Partitions = 3
		cfg.BroadcastRowLimit = -1
		d.cfg.testWaveLaunch = !pipelined
		got, rep, err := d.RunSQLStaged(env, q12ByPartSQL, tables, cfg)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		chunksIdentical(t, got, want)
		return rep
	}
	pipe, waves := run(true), run(false)

	maxLaunch, minSeal := time.Duration(0), time.Duration(1)<<62
	for _, ss := range pipe.StageStats {
		if ss.Launched > maxLaunch {
			maxLaunch = ss.Launched
		}
		if ss.Sealed < minSeal {
			minSeal = ss.Sealed
		}
	}
	if maxLaunch > minSeal {
		t.Errorf("pipelined launch not overlapped: last launch %v after first seal %v", maxLaunch, minSeal)
	}
	// Wave-gated: the join (third stage to launch — the DAG is scan, scan →
	// join → final) must wait for both scan stages to seal, and the final
	// merge for the join.
	byLaunch := append([]StageStat(nil), waves.StageStats...)
	sort.Slice(byLaunch, func(i, j int) bool { return byLaunch[i].Launched < byLaunch[j].Launched })
	if j := byLaunch[2]; j.Launched < byLaunch[0].Sealed || j.Launched < byLaunch[1].Sealed {
		t.Errorf("wave launch not gated: join launched %v, producers sealed %v/%v",
			j.Launched, byLaunch[0].Sealed, byLaunch[1].Sealed)
	}
	if f := byLaunch[3]; f.Launched < byLaunch[2].Sealed {
		t.Errorf("wave launch not gated: final launched %v, join sealed %v", f.Launched, byLaunch[2].Sealed)
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
// scan stages into single-round boundaries, and the 256-worker join launched
// through the invocation tree, 16 synchronous Invokes that outlast both
// scans. Each scan stage must seal as soon as its last worker reported. With
// the launch pass inline in the event loop they sealed only after the join's
// last Invoke, 344 and 253 ms behind their last winners.
//
// And each join worker waits once and reads once: its four reads — two
// senders of each of its two inputs — start at one instant, one request
// window. Collected input by input, they were two windows, the second a
// ready-marker Get and a first-byte latency behind the first.
func TestSealNeverBehindLaunch(t *testing.T) {
	k := simclock.New()
	dep := NewSimulated(k, 42)
	dep.EnableTracing(obs.New())
	var rep *Report
	k.Go("driver", func(p *simclock.Proc) {
		d := NewSession(dep, DefaultConfig())
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 42}
		li := g.Generate()
		opts := lpq.WriterOptions{RowGroupRows: 65536, Compression: lpq.Gzip}
		liRefs, err := d.UploadTable(p, "tpch", "lineitem", li, 4, opts)
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable(p, "tpch", "orders", g.OrdersFor(li), 2, opts)
		if err != nil {
			t.Error(err)
			return
		}
		scfg := DefaultStageConfig()
		scfg.Partitions = 256
		scfg.BroadcastRowLimit = -1
		if _, rep, err = d.RunSQLStaged(p, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg); err != nil {
			t.Errorf("q12: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
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
		if s.Kind == obs.KindOp && s.Name == "s3.getrange" && spans[s.Parent-1].Kind == obs.KindInvoke {
			starts[s.Parent] = append(starts[s.Parent], s.Start)
		}
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
	k := simclock.New()
	dep := NewSimulated(k, 42)
	var keys []string
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.testWaveLaunch = true
		list := func(p *simclock.Proc) {
			client := s3.NewClient(dep.S3, p)
			for i := 0; i < exchange.ShardBuckets; i++ {
				entries, err := client.List(exchangeBucketName(cfg.FunctionName, i), cfg.FunctionName+"/")
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					keys = append(keys, e.Key)
				}
			}
		}
		listed := false
		cfg.testWorkerDelay = func(stage, _, _ int) time.Duration {
			if stage == 0 && !listed { // the join, the result stage
				listed = true
				k.Go("list", list)
			}
			return 0
		}
		d := NewSession(dep, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 42}
		li := g.Generate()
		opts := lpq.WriterOptions{RowGroupRows: 65536, Compression: lpq.Gzip}
		liRefs, err := d.UploadTable(p, "tpch", "lineitem", li, 4, opts)
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable(p, "tpch", "orders", g.OrdersFor(li), 2, opts)
		if err != nil {
			t.Error(err)
			return
		}
		scfg := DefaultStageConfig()
		scfg.Partitions = 256
		scfg.BroadcastRowLimit = -1
		_, rep, err := d.RunSQLStaged(p, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("q12: %v", err)
		} else if rep.Workers != 260 {
			t.Errorf("ran %d workers, want 260", rep.Workers)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
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
	d, env, tables, li, orders := stagedSetup(t, 0.002, 4, 2)
	// A leftover message from a query that aborted mid-wave. Queries now
	// collect on per-query queues, so plant the zombie where the next query
	// (q1 on this fresh session) will actually poll: a restarted driver
	// reusing the counter inherits any queue a crashed predecessor left
	// behind under the same name.
	q1Queue := queryQueueName(d.cfg.ResultQueue, "q1")
	d.dep.SQS.CreateQueue(q1Queue)
	stale, err := json.Marshal(resultMsg{QueryID: "q999", WorkerID: 3, Stage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.dep.SQS.Send(env, q1Queue, stale); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStageConfig()
	cfg.Partitions = 2
	cfg.BroadcastRowLimit = -1
	got, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg)
	if err != nil {
		t.Fatalf("staged query failed on a stale leftover: %v", err)
	}
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, got, want)
}
