package stageplan

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lambada/internal/awssim/dynamo"
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

// broadcasts lists the build sides of sp's broadcast joins, read off its
// stage fragments: each base table a stage scans beside its own.
func broadcasts(sp *Plan) []string {
	var out []string
	for _, st := range sp.Stages {
		engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
			if s.Table != st.Table && !slices.ContainsFunc(st.Inputs, func(in Input) bool { return in.Table == s.Table }) {
				out = append(out, s.Table)
			}
		})
	}
	return out
}

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
	if b := broadcasts(sp); len(b) != 0 {
		t.Fatalf("broadcast = %v, want none", b)
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
	if b := broadcasts(sp); !slices.Equal(b, []string{"supplier"}) {
		t.Fatalf("broadcast = %v", b)
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
	if b := broadcasts(sp); !slices.Equal(b, []string{"supplier"}) {
		t.Fatalf("broadcast = %v (left small side not swapped)", b)
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
// the variant, not a deployment constant. The smallest bucket count b under
// which the boundary's exact billed requests (Variant.SealedRequests) fit —
// puts and gets each at most b · Levels · MaxBucketRoundRequests — wins; a
// small fleet collapses to one bucket, and the pool is only exhausted
// (Buckets == 0, "use them all") when even its last narrowing does not fit.
// The counts were re-derived when the float per-round pressure
// max(S,P)·max(S,P)^(1/k)/b stopped sizing the pool, and again when the
// planner started pricing the staged protocol, which lists nothing and Puts
// no commit marker: 512 × 512 single-round 106 → 88 buckets, 4000 × 1
// 3 → 2.
func TestChooseVariantPicksShardBuckets(t *testing.T) {
	// fits answers the rule for each S3 ceiling apart.
	fits := func(v exchange.Variant, s, p, b int) (writes, reads bool) {
		rc := v.SealedRequests(s, p)
		limit := int64(b * v.Levels * MaxBucketRoundRequests)
		return rc.Puts <= limit, rc.Gets <= limit
	}
	for _, tc := range []struct {
		name                    string
		senders, parts, pool    int
		base                    exchange.Variant
		levels, want            int
		bindsWrites, bindsReads bool // which ceiling fails at want − 1
	}{
		// 64 puts, 64 gets: far under the budget.
		{"small fleet", 8, 8, 8, exchange.Variant{}, 1, 1, false, false},
		// 2 puts, 512 gets: fleet_des' scan boundaries.
		{"2 × 256 write-combined", 2, 256, exchange.ShardBuckets, exchange.Variant{WriteCombining: true}, 1, 1, false, false},
		// 262 144 puts and as many gets need 88 buckets.
		{"512 × 512 single-round", 512, 512, 128, exchange.Variant{}, 1, 88, true, true},
		// G = 23: 12 288 puts and 12 288 gets over two rounds.
		{"512 × 512 two-round", 512, 512, 128, exchange.Variant{}, 2, 3, true, true},
		// 4 000 puts and 4 000 gets fit 2.
		{"4000 × 1 single-round", 4000, 1, 8, exchange.Variant{}, 1, 2, true, true},
		// 88 buckets are more than the pool narrows to: use all 16.
		{"overloaded pool", 512, 512, 16, exchange.Variant{}, 1, 0, true, true},
	} {
		v := ChooseVariant(tc.senders, tc.parts, tc.pool, tc.base, tc.levels)
		if v.Levels != tc.levels || v.Buckets != tc.want {
			t.Errorf("%s: got %v with %d buckets, want %d levels, %d buckets", tc.name, v, v.Buckets, tc.levels, tc.want)
			continue
		}
		if tc.want > 0 {
			if w, r := fits(v, tc.senders, tc.parts, tc.want); !w || !r {
				t.Errorf("%s: chosen b = %d does not fit (writes %v, reads %v)", tc.name, tc.want, w, r)
			}
		}
		// Minimal: the count below the choice (the pool's last narrowing when
		// the choice is the whole pool) fails on the ceiling that binds.
		below := tc.want - 1
		if tc.want == 0 {
			below = tc.pool - 1
		}
		if below >= 1 {
			if w, r := fits(v, tc.senders, tc.parts, below); w == tc.bindsWrites || r == tc.bindsReads {
				t.Errorf("%s: at b = %d writes fit %v and reads %v; want writes %v, reads %v",
					tc.name, below, w, r, !tc.bindsWrites, !tc.bindsReads)
			}
		}
	}

	// Variant.Buckets narrows the driverless request model the same way it
	// narrows the exchange: a variant pinned to 4 buckets bills like a
	// 4-bucket pool.
	pinned := exchange.Variant{Levels: 1, Buckets: 4}
	if got, want := pinned.Requests(64, 64, 16), (exchange.Variant{Levels: 1}).Requests(64, 64, 4); got != want {
		t.Fatalf("pinned-bucket request model: got %+v, want %+v", got, want)
	}
}

// TestChooseVariantRefusesOversizedManifest: a write-combined variant whose
// worst-case manifest — S writers × (slots+1) offsets × 5 bytes plus a
// 10-byte header each — exceeds DynamoDB's item limit cannot have its ready
// marker written, so the planner does not choose it. At 512 × 256 the
// single-round manifest is 512 × 1 295 bytes = 663 040 > 409 600: forced to
// one round the boundary runs basic, left to the model it goes two rounds,
// whose manifests (512 × 95 bytes for the senders, 16 × 95 for the regroup
// fleet) fit. At 300 × 256 (388 500 bytes) single-round write combining is
// kept.
func TestChooseVariantRefusesOversizedManifest(t *testing.T) {
	wc := exchange.Variant{WriteCombining: true}
	if got := (exchange.Variant{Levels: 1, WriteCombining: true}).ManifestBytes(512, 256); got != 663_040 {
		t.Fatalf("1l-wc manifest bound at 512 × 256 = %d bytes, want 663 040", got)
	}
	if got := (exchange.Variant{Levels: 2, WriteCombining: true}).ManifestBytes(512, 256); got != 48_640 {
		t.Fatalf("2l-wc manifest bound at 512 × 256 = %d bytes, want 48 640", got)
	}
	for _, tc := range []struct {
		senders, parts, levels int
		want                   string
	}{
		{512, 256, 1, "1l"},
		{512, 256, 0, "2l-wc"},
		{512, 256, 2, "2l-wc"},
		{300, 256, 1, "1l-wc"},
	} {
		v := ChooseVariant(tc.senders, tc.parts, exchange.ShardBuckets, wc, tc.levels)
		if v.String() != tc.want {
			t.Errorf("%d × %d, levels %d: chose %v, want %s", tc.senders, tc.parts, tc.levels, v, tc.want)
		}
		if v.ManifestBytes(tc.senders, tc.parts) > dynamo.MaxItemBytes {
			t.Errorf("%d × %d, levels %d: chose %v, whose %d-byte manifest does not fit an item",
				tc.senders, tc.parts, tc.levels, v, v.ManifestBytes(tc.senders, tc.parts))
		}
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

// q12Footers is what the driver hands Decompose for q12 over two LINEITEM and
// two ORDERS scan workers, with or without the footer bound of the group key.
func q12Footers(bounded bool) Stats {
	stats := bigStats()
	stats.Workers = map[string]int{"lineitem": 2, "orders": 2}
	if bounded {
		stats.Bounds = func(table, column string) (int64, int64, bool) {
			return 0, 4, table == "orders" && column == "o_orderpriority"
		}
	}
	return stats
}

// TestDecomposeResolvesDAG: Decompose returns every fleet the query runs —
// its size, its boundary's algorithm, and a multi-level boundary's regroup
// stage right behind the producer with the next free ID, which the
// boundary's consumers depend on and name as the seal that gates their
// collect (Input.Ready; the producer itself for a single-round boundary).
func TestDecomposeResolvesDAG(t *testing.T) {
	wc := exchange.Variant{WriteCombining: true}
	type stage struct {
		id, regroupOf, workers int // regroupOf -1: a fragment
		variant                string
	}
	for _, tc := range []struct {
		name  string
		stats Stats
		cfg   Config
		want  []stage
	}{
		// Single-round since the exact request model sizes the shard pool: 1
		// listed bucket, not the 2 the float per-round pressure asked for,
		// makes 1l-wc cheaper than 2l-wc plus two 16-worker regroup fleets.
		{"q12 at P 256", q12Footers(true), Config{Partitions: 256, Exchange: wc}, []stage{
			{1, -1, 2, "1l-wc"}, {2, -1, 2, "1l-wc"}, {0, -1, 256, ""},
		}},
		{"q12 at P 30", q12Footers(true), Config{Partitions: 30, Exchange: wc}, []stage{
			{1, -1, 2, "1l-wc"}, {2, -1, 2, "1l-wc"}, {0, -1, 30, ""},
		}},
		{"two rounds pinned at P 5", q12Footers(false), Config{Partitions: 5, Exchange: exchange.Variant{Levels: 2}}, []stage{
			{1, -1, 2, "2l"}, {4, 1, 3, "2l"}, {2, -1, 2, "2l"}, {5, 2, 3, "2l"}, {0, -1, 5, "2l"}, {6, 0, 3, "2l"}, {3, -1, 5, ""},
		}},
		{"one round pinned at P 512", q12Footers(true), Config{Partitions: 512, Exchange: exchange.Variant{Levels: 1, WriteCombining: true}}, []stage{
			{1, -1, 2, "1l-wc"}, {2, -1, 2, "1l-wc"}, {0, -1, 512, ""},
		}},
		{"a table missing from Workers", Stats{Rows: bigStats().Rows}, Config{Partitions: 3}, []stage{
			{1, -1, 1, "1l"}, {2, -1, 1, "1l"}, {0, -1, 3, "1l"}, {3, -1, 3, ""},
		}},
	} {
		tc.cfg.BroadcastRowLimit = -1
		sp, err := Decompose(optimized(t, q12SQL), tc.stats, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []stage
		regroup := map[int]int{} // producer → its regroup stage
		for _, s := range sp.Stages {
			st := stage{s.ID, -1, s.Workers, ""}
			if producer, ok := s.RegroupOf(); ok {
				st.regroupOf, regroup[producer] = producer, s.ID
			}
			if s.Output != nil {
				st.variant = s.Output.Variant.String()
			}
			got = append(got, st)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stages\n got %+v\nwant %+v\n%s", tc.name, got, tc.want, Explain(sp))
			continue
		}
		// Every consumer collects once its input's last round sealed, and
		// depends on the stage that seals it.
		for _, s := range sp.Stages {
			for _, in := range s.Inputs {
				want := in.StageID
				if rg, ok := regroup[in.StageID]; ok && s.Plan != nil {
					want = rg
				}
				if in.Ready != want || !slices.Contains(s.DependsOn, in.StageID) || !slices.Contains(s.DependsOn, want) {
					t.Errorf("%s: stage %d input %+v depends on %v, want ready %d", tc.name, s.ID, in, s.DependsOn, want)
				}
			}
		}
	}
}

// TestDecomposeCompletesInputs: every input carries what its collector reads
// the boundary with — its producer's Workers as Senders, and the variant the
// producer's Output publishes with — so a task's boundary is complete as the
// planner made it. The fleets differ, so a wrong producer shows: three and two
// scan workers, five join workers, three regroup workers per two-level
// boundary.
func TestDecomposeCompletesInputs(t *testing.T) {
	stats := q12Footers(false)
	stats.Workers = map[string]int{"lineitem": 3, "orders": 2}
	for _, levels := range []int{1, 2} {
		sp, err := Decompose(optimized(t, q12SQL), stats, Config{Partitions: 5, BroadcastRowLimit: -1, Exchange: exchange.Variant{Levels: levels}})
		if err != nil {
			t.Fatal(err)
		}
		byID, inputs := map[int]*Stage{}, 0
		for _, st := range sp.Stages {
			byID[st.ID] = st
			for _, in := range st.Inputs {
				inputs++
				if up := byID[in.StageID]; up == nil || up.Output == nil || in.Senders != up.Workers || in.Variant != up.Output.Variant {
					t.Errorf("levels %d: stage %d input %+v, producer %+v\n%s", levels, st.ID, in, up, Explain(sp))
				}
			}
		}
		if want := []int{3, 6}[levels-1]; inputs != want {
			t.Errorf("levels %d: %d inputs, want %d\n%s", levels, inputs, want, Explain(sp))
		}
	}
}

// TestExplainQ12: the rendering cmd/lambada -v prints is the DAG that runs,
// each fleet with its size and each boundary with its algorithm and shard
// buckets. Re-recorded when the exact request model took over the shard
// count: both boundaries went 2l-wc with two regroup stages → 1l-wc b=1.
func TestExplainQ12(t *testing.T) {
	sp, err := Decompose(optimized(t, q12SQL), q12Footers(true),
		Config{Partitions: 256, BroadcastRowLimit: -1, Exchange: exchange.Variant{WriteCombining: true}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `stage 1 scan=lineitem workers=2 out=hash([l_orderkey])x256 1l-wc b=1
  Scan lineitem [l_orderkey, l_extendedprice, l_receiptdate] filter=((l_receiptdate >= 731) AND (l_receiptdate < 1096)) prune=2
stage 2 scan=orders workers=2 out=hash([o_orderkey])x256 1l-wc b=1
  Scan orders [o_orderkey, o_orderpriority]
stage 0 in=1 in=2 workers=256 out=driver
  Aggregate COUNT(*) AS __p0_cnt_n, SUM(l_extendedprice) AS __p1_sum_total GROUP BY o_orderpriority
    HashJoin l_orderkey = o_orderkey
      Scan __stage1
driver:
  OrderBy o_orderpriority
    Project o_orderpriority AS o_orderpriority, n AS n, total AS total
      Project o_orderpriority AS o_orderpriority, __p0_cnt_n AS n, __p1_sum_total AS total
        Aggregate SUM(__p0_cnt_n) AS __p0_cnt_n, SUM(__p1_sum_total) AS __p1_sum_total GROUP BY o_orderpriority
          Scan __worker_results
merge: driver (≤ 5 groups × 256 workers)
`
	if got := Explain(sp); got != want {
		t.Errorf("Explain:\n%s\nwant:\n%s", got, want)
	}

	// Two rounds pinned: each regroup fleet renders right behind its producer.
	sp, err = Decompose(optimized(t, q12SQL), q12Footers(true),
		Config{Partitions: 256, BroadcastRowLimit: -1, Exchange: exchange.Variant{Levels: 2, WriteCombining: true}})
	if err != nil {
		t.Fatal(err)
	}
	const regroup = `stage 3 regroup of 1 workers=16 out=hash([l_orderkey])x256 2l-wc b=1
stage 2 scan=orders workers=2 out=hash([o_orderkey])x256 2l-wc b=1
  Scan orders [o_orderkey, o_orderpriority]
stage 4 regroup of 2 workers=16 out=hash([o_orderkey])x256 2l-wc b=1
`
	if got := Explain(sp); !strings.Contains(got, regroup) {
		t.Errorf("Explain, two rounds pinned:\n%s\nwant it to contain:\n%s", got, regroup)
	}
}
