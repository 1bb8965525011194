package stageplan

import (
	"math"
	"strings"
	"testing"

	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/sqlfe"
	"lambada/internal/tpch"
)

func optimized(t *testing.T, sql string) engine.Plan {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema()),
		"orders":   engine.NewMemSource(tpch.OrdersSchema()),
		"supplier": engine.NewMemSource(tpch.SupplierSchema()),
	}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

const q12SQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

func bigStats() Stats {
	return Stats{Rows: map[string]int64{"lineitem": 1 << 20, "orders": 1 << 18, "supplier": 50}}
}

func TestDecomposeShuffleJoinWithGroupBy(t *testing.T) {
	sp, err := Decompose(optimized(t, q12SQL), bigStats(), Config{Partitions: 3, BroadcastRowLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 4 {
		t.Fatalf("stages = %d, want 4 (scan, scan, join+partial, final):\n%s", len(sp.Stages), Explain(sp))
	}
	if len(sp.Broadcast) != 0 {
		t.Fatalf("broadcast = %v, want none", sp.Broadcast)
	}
	scanL, scanR, join, final := sp.Stages[0], sp.Stages[1], sp.Stages[2], sp.Stages[3]
	if scanL.Table != "lineitem" || scanR.Table != "orders" {
		t.Fatalf("scan stages over %q/%q", scanL.Table, scanR.Table)
	}
	if scanL.Output == nil || scanL.Output.Partitions != 3 || scanL.Output.Keys[0] != "l_orderkey" {
		t.Fatalf("left boundary = %+v", scanL.Output)
	}
	if scanR.Output == nil || scanR.Output.Keys[0] != "o_orderkey" {
		t.Fatalf("right boundary = %+v", scanR.Output)
	}
	if len(join.Inputs) != 2 || join.Inputs[0].StageID != scanL.ID || join.Inputs[1].StageID != scanR.ID {
		t.Fatalf("join inputs = %+v", join.Inputs)
	}
	if join.Output == nil || join.Output.Keys[0] != "o_orderpriority" {
		t.Fatalf("join boundary = %+v (want repartition on group key)", join.Output)
	}
	if _, ok := join.Plan.(*engine.AggregatePlan); !ok {
		t.Fatalf("join stage fragment root = %T, want partial AggregatePlan", join.Plan)
	}
	if final.Output != nil || len(final.Inputs) != 1 || final.Inputs[0].StageID != join.ID {
		t.Fatalf("final stage = %+v", final)
	}
	if sp.ResultStage() != final {
		t.Fatal("result stage is not the final merge")
	}
	// The probe-side scan must have been pruned to the referenced columns.
	scan := findScan(scanL.Plan, "lineitem")
	if scan == nil || scan.Projection == nil {
		t.Fatalf("lineitem scan not projection-pruned: %v", engine.Explain(scanL.Plan))
	}
	// The build-side scan too — shuffle sides are not broadcast-whole.
	oscan := findScan(scanR.Plan, "orders")
	if oscan == nil || oscan.Projection == nil {
		t.Fatalf("orders scan not projection-pruned: %v", engine.Explain(scanR.Plan))
	}
}

func TestDecomposeBroadcastJoinStaysSingleStage(t *testing.T) {
	sql := `
SELECT s_nationkey, COUNT(*) AS n
FROM lineitem INNER JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
GROUP BY s_nationkey ORDER BY s_nationkey`
	sp, err := Decompose(optimized(t, sql), bigStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// supplier (50 rows) broadcasts; the group keys are Int64 so the
	// aggregation still splits over the exchange: scan+partial, final.
	if len(sp.Stages) != 2 {
		t.Fatalf("stages = %d:\n%s", len(sp.Stages), Explain(sp))
	}
	if len(sp.Broadcast) != 1 || sp.Broadcast[0] != "supplier" {
		t.Fatalf("broadcast = %v", sp.Broadcast)
	}
	if sp.Stages[0].Table != "lineitem" {
		t.Fatalf("stage 0 table = %q", sp.Stages[0].Table)
	}
}

func TestDecomposeSwapsSmallLeftSide(t *testing.T) {
	// supplier is on the LEFT; the planner should swap it to the build
	// side and broadcast it rather than shuffling both sides.
	sql := `
SELECT s_nationkey, COUNT(*) AS n
FROM supplier INNER JOIN lineitem ON supplier.s_suppkey = lineitem.l_suppkey
GROUP BY s_nationkey ORDER BY s_nationkey`
	sp, err := Decompose(optimized(t, sql), bigStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Broadcast) != 1 || sp.Broadcast[0] != "supplier" {
		t.Fatalf("broadcast = %v (left small side not swapped)", sp.Broadcast)
	}
	if sp.Stages[0].Table != "lineitem" {
		t.Fatalf("probe stage table = %q", sp.Stages[0].Table)
	}
}

func TestDecomposeGroupByWithoutJoin(t *testing.T) {
	sql := `SELECT l_suppkey, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey ORDER BY l_suppkey`
	sp, err := Decompose(optimized(t, sql), bigStats(), Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 2 {
		t.Fatalf("stages = %d:\n%s", len(sp.Stages), Explain(sp))
	}
	if sp.Stages[0].Output == nil || sp.Stages[0].Output.Keys[0] != "l_suppkey" {
		t.Fatalf("scan boundary = %+v", sp.Stages[0].Output)
	}
}

// TestDecomposeAutoPartitions: Partitions = 0 derives the boundary fan-in
// from the footer row counts — ceil(largest table / AutoRowsPerPartition),
// clamped — instead of a fixed default.
func TestDecomposeAutoPartitions(t *testing.T) {
	// lineitem is 1<<20 rows: 1<<20 / 1<<16 = 16 partitions.
	sp, err := Decompose(optimized(t, q12SQL), bigStats(), Config{BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Stages[0].Output.Partitions; got != 16 {
		t.Errorf("auto partitions = %d, want 16", got)
	}

	// A tiny input collapses to one partition.
	tiny := Stats{Rows: map[string]int64{"lineitem": 100, "orders": 50}}
	sp, err = Decompose(optimized(t, q12SQL), tiny, Config{BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Stages[0].Output.Partitions; got != 1 {
		t.Errorf("tiny auto partitions = %d, want 1", got)
	}

	// A huge input clamps at MaxAutoPartitions.
	huge := Stats{Rows: map[string]int64{"lineitem": 1 << 32, "orders": 1 << 30}}
	sp, err = Decompose(optimized(t, q12SQL), huge, Config{BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Stages[0].Output.Partitions; got != MaxAutoPartitions {
		t.Errorf("huge auto partitions = %d, want %d", got, MaxAutoPartitions)
	}

	// Explicit fan-in still wins.
	sp, err = Decompose(optimized(t, q12SQL), bigStats(), Config{Partitions: 3, BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Stages[0].Output.Partitions; got != 3 {
		t.Errorf("explicit partitions = %d, want 3", got)
	}
}

func TestDecomposeGlobalAggregate(t *testing.T) {
	sp, err := Decompose(optimized(t, `SELECT COUNT(*) AS n FROM lineitem`), bigStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 1 || sp.Stages[0].Output != nil {
		t.Fatalf("global aggregate staged wrong:\n%s", Explain(sp))
	}
}

func TestDecomposeNonIntGroupKeyFallsBackToDriverMerge(t *testing.T) {
	// l_quantity is FLOAT: partials cannot repartition on it, so they
	// funnel to the driver instead.
	sql := `SELECT l_quantity, COUNT(*) AS n FROM lineitem GROUP BY l_quantity`
	sp, err := Decompose(optimized(t, sql), bigStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 1 || sp.Stages[0].Output != nil {
		t.Fatalf("float group key should not repartition:\n%s", Explain(sp))
	}
}

func findScan(p engine.Plan, table string) *engine.ScanPlan {
	for n := p; n != nil; n = n.Child() {
		if s, ok := n.(*engine.ScanPlan); ok && s.Table == table {
			return s
		}
		if j, ok := n.(*engine.JoinPlan); ok {
			if s := findScan(j.Right, table); s != nil {
				return s
			}
		}
	}
	return nil
}

// TestChooseVariantPicksShardBuckets: sharding B is a chosen dimension of
// the variant, not a deployment constant. The smallest bucket count whose
// per-round per-bucket pressure (Variant.RequestsPerBucketPerRound) fits
// MaxBucketRoundRequests wins; a small fleet collapses to one bucket, and
// the pool is only exhausted (Buckets == 0, "use them all") when even the
// full pool cannot absorb the pressure.
func TestChooseVariantPicksShardBuckets(t *testing.T) {
	base := exchange.Variant{}

	// A small fleet puts 8*8 = 64 requests per round on one bucket — far
	// under the budget, so one shard bucket suffices.
	v := ChooseVariant(8, 8, 8, base, 1)
	if v.Levels != 1 || v.Buckets != 1 {
		t.Fatalf("small fleet: got %+v, want 1 level, 1 bucket", v)
	}

	// 512 senders single-level: 512^2/B <= 3000 first holds at B = 88.
	v = ChooseVariant(512, 512, 128, base, 1)
	if v.Buckets != 88 {
		t.Fatalf("512-sender single-level: got B=%d, want 88", v.Buckets)
	}
	// Two-level spreads each round over sqrt(P) targets, so the same fleet
	// needs only 512*sqrt(512)/B <= 3000, first held at B = 4.
	v = ChooseVariant(512, 512, 128, base, 2)
	if v.Levels != 2 || v.Buckets != 4 {
		t.Fatalf("512-sender two-level: got %+v, want 2 levels, 4 buckets", v)
	}

	// Minimality on both sides of the chosen count.
	single := exchange.Variant{Levels: 1}
	if p := single.RequestsPerBucketPerRound(512, 88); p > MaxBucketRoundRequests {
		t.Errorf("chosen B=88 still over budget: %.0f", p)
	}
	if p := single.RequestsPerBucketPerRound(512, 87); p <= MaxBucketRoundRequests {
		t.Errorf("B=87 already fits (%.0f), chosen count not minimal", p)
	}

	// When the full pool cannot absorb the pressure, Buckets stays 0: use
	// every available bucket rather than a narrowed subset.
	v = ChooseVariant(512, 512, 16, base, 1)
	if v.Buckets != 0 {
		t.Fatalf("overloaded pool: got B=%d, want 0 (full pool)", v.Buckets)
	}

	// Variant.Buckets narrows the request model the same way it narrows the
	// exchange: a variant pinned to 4 buckets bills like a 4-bucket pool.
	pinned := exchange.Variant{Levels: 1, Buckets: 4}
	if got, want := pinned.Requests(64, 64, 16), (exchange.Variant{Levels: 1}).Requests(64, 64, 4); got != want {
		t.Fatalf("pinned-bucket request model: got %+v, want %+v", got, want)
	}
}

// TestDecomposeMergeChoice: where an aggregate's partials merge is decided
// from the footers — the provenance of each group key's bound, and the rule
// G × fleet ≤ DefaultBroadcastRowLimit on both sides of its edge — and from
// nothing else. A driver merge is one stage fewer and no boundary under the
// aggregate.
func TestDecomposeMergeChoice(t *testing.T) {
	const join = ` FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey `
	// The bounds a footer would give: a column missing here has no statistics.
	bounds := map[string][2]int64{
		"lineitem.l_returnflag":  {0, 2},
		"lineitem.l_linestatus":  {0, 1},
		"orders.o_orderpriority": {0, 4},
		"lineitem.l_linenumber":  {1, 16384},
		"lineitem.l_partkey":     {1, 16385},
		"lineitem.l_orderkey":    {1, DefaultBroadcastRowLimit},
		"lineitem.l_suppkey":     {0, DefaultBroadcastRowLimit},
		"lineitem.l_shipdate":    {math.MinInt64, math.MaxInt64},
	}
	footers := bigStats()
	footers.Workers = map[string]int{"lineitem": 4, "orders": 2}
	footers.Bounds = func(table, column string) (int64, int64, bool) {
		b, ok := bounds[table+"."+column]
		return b[0], b[1], ok
	}
	oneWorker := footers
	oneWorker.Workers = map[string]int{"lineitem": 1}
	// project puts key AS k under the aggregate, by hand: sqlfe has no such form.
	project := func(key engine.Expr) engine.Plan {
		return &engine.AggregatePlan{
			GroupBy: []string{"k"},
			Aggs:    []engine.AggSpec{{Func: engine.AggCount, Name: "n"}},
			In:      &engine.ProjectPlan{In: &engine.ScanPlan{Table: "lineitem"}, Exprs: []engine.Expr{key}, Names: []string{"k"}},
		}
	}
	for _, tc := range []struct {
		name  string
		sql   string
		plan  engine.Plan
		stats Stats
		merge string
	}{
		{name: "global", sql: `SELECT COUNT(*) AS n FROM lineitem`, stats: footers, merge: "driver (≤ 1 groups × 4 workers)"},
		{name: "through a filter", sql: `SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_shipdate < DATE '1995-01-01' GROUP BY l_returnflag, l_linestatus`,
			stats: footers, merge: "driver (≤ 6 groups × 4 workers)"},
		{name: "through the build side", sql: `SELECT o_orderpriority, COUNT(*) AS n` + join + `GROUP BY o_orderpriority`,
			stats: footers, merge: "driver (≤ 5 groups × 3 workers)"},
		{name: "through the probe side", sql: `SELECT l_returnflag, COUNT(*) AS n` + join + `GROUP BY l_returnflag`,
			stats: footers, merge: "driver (≤ 3 groups × 3 workers)"},
		{name: "through an identity projection", plan: project(engine.Col("l_returnflag")), stats: footers, merge: "driver (≤ 3 groups × 4 workers)"},
		{name: "computed key", plan: project(engine.NewBin(engine.OpAdd, engine.Col("l_returnflag"), engine.ConstInt(1))),
			stats: footers, merge: "repartition ×3 (k unbounded)"},
		{name: "float key", sql: `SELECT l_quantity, COUNT(*) AS n FROM lineitem GROUP BY l_quantity`, stats: footers, merge: "driver (keys not hashable)"},
		{name: "no statistics", sql: `SELECT l_commitdate, COUNT(*) AS n FROM lineitem GROUP BY l_commitdate`, stats: footers, merge: "repartition ×3 (l_commitdate unbounded)"},
		{name: "range overflows", sql: `SELECT l_shipdate, COUNT(*) AS n FROM lineitem GROUP BY l_shipdate`, stats: footers, merge: "repartition ×3 (l_shipdate: over 65536 groups)"},
		{name: "rows alone", sql: `SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag`, stats: bigStats(), merge: "repartition ×3 (l_returnflag unbounded)"},
		{name: "G × fleet = limit", sql: `SELECT l_linenumber, COUNT(*) AS n FROM lineitem GROUP BY l_linenumber`, stats: footers, merge: "driver (≤ 16384 groups × 4 workers)"},
		{name: "G × fleet = limit + 4", sql: `SELECT l_partkey, COUNT(*) AS n FROM lineitem GROUP BY l_partkey`, stats: footers, merge: "repartition ×3 (≤ 16385 groups × 4 workers)"},
		{name: "G = limit", sql: `SELECT l_orderkey, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey`, stats: oneWorker, merge: "driver (≤ 65536 groups × 1 workers)"},
		{name: "G = limit + 1", sql: `SELECT l_suppkey, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey`, stats: oneWorker, merge: "repartition ×3 (l_suppkey: over 65536 groups)"},
	} {
		plan := tc.plan
		if plan == nil {
			plan = optimized(t, tc.sql)
		} else if opt, err := engine.Optimize(plan, engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema())}); err != nil {
			t.Fatal(err)
		} else {
			plan = opt
		}
		sp, err := Decompose(plan, tc.stats, Config{Partitions: 3, BroadcastRowLimit: -1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sp.Merge != tc.merge {
			t.Errorf("%s: merge: %s, want %s", tc.name, sp.Merge, tc.merge)
		}
		// A final-merge stage has one input — the row stage's boundary — where
		// a scan stage has none and a join stage two.
		if final := len(sp.ResultStage().Inputs) == 1; final != strings.HasPrefix(tc.merge, "repartition") {
			t.Errorf("%s: merge: %s, but the plan is\n%s", tc.name, sp.Merge, Explain(sp))
		}
		if !strings.Contains(Explain(sp), "merge: "+tc.merge+"\n") {
			t.Errorf("%s: Explain does not say why:\n%s", tc.name, Explain(sp))
		}
	}
}
