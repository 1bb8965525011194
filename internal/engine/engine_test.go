package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

func liSource(t *testing.T, sf float64) (*MemSource, *columnar.Chunk) {
	t.Helper()
	c := tpch.Gen{SF: sf, Seed: 11}.Generate()
	return NewMemSource(tpch.Schema(), c), c
}

// q1Plan builds TPC-H Query 1 in plan IR.
func q1Plan() Plan {
	return &OrderByPlan{
		Keys: []OrderKey{{Column: "l_returnflag"}, {Column: "l_linestatus"}},
		In: &AggregatePlan{
			GroupBy: []string{"l_returnflag", "l_linestatus"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("l_quantity"), Name: "sum_qty"},
				{Func: AggSum, Arg: Col("l_extendedprice"), Name: "sum_base_price"},
				{Func: AggSum, Arg: NewBin(OpMul, Col("l_extendedprice"), NewBin(OpSub, ConstFloat(1), Col("l_discount"))), Name: "sum_disc_price"},
				{Func: AggSum, Arg: NewBin(OpMul, NewBin(OpMul, Col("l_extendedprice"), NewBin(OpSub, ConstFloat(1), Col("l_discount"))), NewBin(OpAdd, ConstFloat(1), Col("l_tax"))), Name: "sum_charge"},
				{Func: AggAvg, Arg: Col("l_quantity"), Name: "avg_qty"},
				{Func: AggAvg, Arg: Col("l_extendedprice"), Name: "avg_price"},
				{Func: AggAvg, Arg: Col("l_discount"), Name: "avg_disc"},
				{Func: AggCount, Name: "count_order"},
			},
			In: &FilterPlan{
				Pred: NewBin(OpLE, Col("l_shipdate"), ConstInt(tpch.Q1ShipDateCutoff)),
				In:   &ScanPlan{Table: "lineitem"},
			},
		},
	}
}

// q6Plan builds TPC-H Query 6 in plan IR.
func q6Plan() Plan {
	pred := And(
		NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
		NewBin(OpLT, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateHi)),
		Between(Col("l_discount"), ConstFloat(0.0499999), ConstFloat(0.0700001)),
		NewBin(OpLT, Col("l_quantity"), ConstFloat(24)),
	)
	return &AggregatePlan{
		Aggs: []AggSpec{{Func: AggSum, Arg: NewBin(OpMul, Col("l_extendedprice"), Col("l_discount")), Name: "revenue"}},
		In:   &FilterPlan{Pred: pred, In: &ScanPlan{Table: "lineitem"}},
	}
}

// TestExprTemporariesGoBackToThePool: a Q6-shaped predicate evaluated
// through a pool hands every temporary back — once warm, a selection costs
// no allocation — selects what a pool-less evaluation selects, and never
// recycles a column of the chunk it read.
func TestExprTemporariesGoBackToThePool(t *testing.T) {
	data := tpch.Gen{SF: 0.001, Seed: 3}.Generate()
	pred := And(
		NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
		&Not{E: NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateHi))},
		Between(Col("l_discount"), ConstFloat(0.0499999), ConstFloat(0.0700001)),
		NewBin(OpLT, NewBin(OpMul, Col("l_quantity"), ConstInt(1)), ConstFloat(24)),
	)
	want, err := FilterSelection(data, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == data.NumRows() {
		t.Fatalf("predicate selects %d of %d rows — test has no teeth", len(want), data.NumRows())
	}
	pool := columnar.NewPool()
	sel := pool.GetSelection()
	if n := testing.AllocsPerRun(20, func() {
		if sel, err = FilterSelection(data, pred, sel, pool); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm pooled selection allocates %.0f times, want 0", n)
	}
	if !reflect.DeepEqual(sel, want) {
		t.Error("pooled selection differs from the pool-less one")
	}
	// A Col's vector is the chunk's: a Bool column used as the predicate
	// must not come back out of the pool.
	flags := columnar.NewChunk(columnar.NewSchema(columnar.Field{Name: "b", Type: columnar.Bool}), 2)
	flags.Columns[0].AppendBool(true)
	flags.Columns[0].AppendBool(false)
	if _, err := FilterSelection(flags, Col("b"), nil, pool); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if pool.GetVector(columnar.Bool, 0) == flags.Columns[0] {
			t.Fatal("FilterSelection recycled a Col's shared vector")
		}
	}
}

func TestExprEvalAndTypes(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "i", Type: columnar.Int64},
		columnar.Field{Name: "f", Type: columnar.Float64},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	c := columnar.NewChunk(schema, 3)
	for i := 0; i < 3; i++ {
		c.Columns[0].AppendInt64(int64(i + 1))
		c.Columns[1].AppendFloat64(float64(i) * 1.5)
		c.Columns[2].AppendBool(i%2 == 0)
	}
	// One pool across every evaluation: each reuses the temporaries the
	// ones before it handed back.
	pool := columnar.NewPool()

	sum := NewBin(OpAdd, Col("i"), Col("i"))
	if tp, _ := sum.Type(schema); tp != columnar.Int64 {
		t.Errorf("int+int type = %v", tp)
	}
	v, err := sum.Eval(c, pool)
	if err != nil || !reflect.DeepEqual(v.Int64s, []int64{2, 4, 6}) {
		t.Errorf("int+int = %v, %v", v, err)
	}

	mixed := NewBin(OpMul, Col("i"), Col("f"))
	if tp, _ := mixed.Type(schema); tp != columnar.Float64 {
		t.Errorf("int*float type = %v", tp)
	}
	v, _ = mixed.Eval(c, pool)
	if !reflect.DeepEqual(v.Float64s, []float64{0, 3, 9}) {
		t.Errorf("int*float = %v", v.Float64s)
	}

	div := NewBin(OpDiv, Col("i"), Col("i"))
	if tp, _ := div.Type(schema); tp != columnar.Float64 {
		t.Errorf("div type = %v (division always yields float)", tp)
	}

	cmp := NewBin(OpGE, Col("i"), ConstInt(2))
	v, _ = cmp.Eval(c, pool)
	if !reflect.DeepEqual(v.Bools, []bool{false, true, true}) {
		t.Errorf("cmp = %v", v.Bools)
	}

	logic := NewBin(OpAnd, cmp, Col("b"))
	v, _ = logic.Eval(c, pool)
	if !reflect.DeepEqual(v.Bools, []bool{false, false, true}) {
		t.Errorf("and = %v", v.Bools)
	}

	not := &Not{E: Col("b")}
	v, _ = not.Eval(c, pool)
	if !reflect.DeepEqual(v.Bools, []bool{false, true, false}) {
		t.Errorf("not = %v", v.Bools)
	}

	// Type errors.
	if _, err := NewBin(OpAdd, Col("b"), Col("i")).Type(schema); err == nil {
		t.Error("bool arithmetic accepted")
	}
	if _, err := NewBin(OpAnd, Col("i"), Col("b")).Type(schema); err == nil {
		t.Error("AND on int accepted")
	}
	if _, err := Col("zzz").Type(schema); err == nil {
		t.Error("unknown column accepted")
	}

	// Column collection.
	cols := logic.Columns(nil)
	if len(cols) != 2 || cols[0] != "i" || cols[1] != "b" {
		t.Errorf("columns = %v", cols)
	}
}

func TestExecuteScanFilterProject(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 10)
	for i := int64(0); i < 10; i++ {
		c.Columns[0].AppendInt64(i)
	}
	cat := Catalog{"t": NewMemSource(schema, c)}
	plan := &ProjectPlan{
		Exprs: []Expr{NewBin(OpMul, Col("x"), ConstInt(2))},
		Names: []string{"y"},
		In:    &FilterPlan{Pred: NewBin(OpGE, Col("x"), ConstInt(7)), In: &ScanPlan{Table: "t"}},
	}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Columns[0].Int64s, []int64{14, 16, 18}) {
		t.Errorf("result = %v", out.Columns[0].Int64s)
	}
	if out.Schema.Fields[0].Name != "y" {
		t.Errorf("schema = %v", out.Schema)
	}
}

func TestExecuteLimitAndOrder(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 5)
	for _, v := range []int64{3, 1, 4, 1, 5} {
		c.Columns[0].AppendInt64(v)
	}
	cat := Catalog{"t": NewMemSource(schema, c)}
	plan := &LimitPlan{N: 3, In: &OrderByPlan{Keys: []OrderKey{{Column: "x", Desc: true}}, In: &ScanPlan{Table: "t"}}}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Columns[0].Int64s, []int64{5, 4, 3}) {
		t.Errorf("result = %v", out.Columns[0].Int64s)
	}
	// A LIMIT directly over an ORDER BY is one pipeline: one collect, sorted
	// and limited.
	g, _, err := compileGraph(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) != 1 {
		t.Errorf("ORDER BY … LIMIT compiled into %d pipelines, want 1", len(g.nodes))
	}
	// A negative LIMIT off a payload's plan JSON is outside input: it fails
	// at decode, before anything runs.
	if _, err := UnmarshalPlan([]byte(`{"kind":"limit","n":-1,"in":{"kind":"scan","table":"t"}}`)); err == nil {
		t.Error("LIMIT -1 decoded")
	}
}

func TestQ1MatchesReference(t *testing.T) {
	src, data := liSource(t, 0.002)
	cat := Catalog{"lineitem": src}
	out, err := Execute(q1Plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	ref := tpch.Q1Reference(data)
	if out.NumRows() != len(ref) {
		t.Fatalf("groups = %d, want %d", out.NumRows(), len(ref))
	}
	for i, r := range ref {
		if out.Column("l_returnflag").Int64s[i] != r.ReturnFlag ||
			out.Column("l_linestatus").Int64s[i] != r.LineStatus {
			t.Errorf("row %d keys mismatch", i)
		}
		checks := []struct {
			name string
			got  float64
			want float64
		}{
			{"sum_qty", out.Column("sum_qty").Float64s[i], r.SumQty},
			{"sum_base_price", out.Column("sum_base_price").Float64s[i], r.SumBasePrice},
			{"sum_disc_price", out.Column("sum_disc_price").Float64s[i], r.SumDiscPrice},
			{"sum_charge", out.Column("sum_charge").Float64s[i], r.SumCharge},
			{"avg_qty", out.Column("avg_qty").Float64s[i], r.AvgQty},
			{"avg_price", out.Column("avg_price").Float64s[i], r.AvgPrice},
			{"avg_disc", out.Column("avg_disc").Float64s[i], r.AvgDisc},
		}
		for _, ch := range checks {
			if math.Abs(ch.got-ch.want) > 1e-6*math.Max(1, math.Abs(ch.want)) {
				t.Errorf("row %d %s = %v, want %v", i, ch.name, ch.got, ch.want)
			}
		}
		if out.Column("count_order").Int64s[i] != r.Count {
			t.Errorf("row %d count = %d, want %d", i, out.Column("count_order").Int64s[i], r.Count)
		}
	}
}

func TestQ6MatchesReference(t *testing.T) {
	src, data := liSource(t, 0.002)
	out, err := Execute(q6Plan(), Catalog{"lineitem": src})
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	got := out.Column("revenue").Float64s[0]
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("Q6 = %v, want %v", got, want)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	cat := Catalog{"t": NewMemSource(schema)}
	plan := &AggregatePlan{
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}, {Func: AggSum, Arg: Col("x"), Name: "s"},
			{Func: AggMin, Arg: Col("x"), Name: "lo"}, {Func: AggMax, Arg: Col("x"), Name: "hi"}},
		In: &ScanPlan{Table: "t"},
	}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column("n").Int64s[0] != 0 {
		t.Fatalf("empty aggregate = %v rows, n=%v", out.NumRows(), out.Column("n"))
	}
	if s, lo, hi := out.Column("s").Int64s[0], out.Column("lo").Int64s[0], out.Column("hi").Int64s[0]; s != 0 || lo != 0 || hi != 0 {
		t.Errorf("empty aggregate: SUM %d, MIN %d, MAX %d; want zeros", s, lo, hi)
	}
}

// TestAggregateRejectsBadSpec: an aggregate other than COUNT without an
// argument, or one of no known function, as a payload's plan JSON can carry
// them, fails at Execute.
func TestAggregateRejectsBadSpec(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	cat := Catalog{"t": NewMemSource(schema)}
	for _, a := range []AggSpec{{Func: AggMin, Name: "m"}, {Func: AggFunc(9), Arg: Col("x"), Name: "f"}} {
		if _, err := Execute(&AggregatePlan{Aggs: []AggSpec{a}, In: &ScanPlan{Table: "t"}}, cat); err == nil {
			t.Errorf("aggregate %v accepted", a)
		}
	}
}

func TestOptimizePushesFilterAndProjection(t *testing.T) {
	src, _ := liSource(t, 0.001)
	cat := Catalog{"lineitem": src}
	opt, err := Optimize(q6Plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	// The filter must have been folded into the scan.
	var scan *ScanPlan
	for n := opt; n != nil; n = n.Child() {
		if s, ok := n.(*ScanPlan); ok {
			scan = s
		}
		if _, ok := n.(*FilterPlan); ok {
			t.Error("FilterPlan survived push-down")
		}
	}
	if scan == nil {
		t.Fatal("no scan in optimized plan")
	}
	if scan.Filter == nil {
		t.Error("scan has no pushed filter")
	}
	// Q6 touches 4 columns; the projection must be restricted to them.
	want := []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"}
	if !reflect.DeepEqual(scan.Projection, want) {
		t.Errorf("projection = %v, want %v", scan.Projection, want)
	}
	// Prune predicates must include the shipdate range.
	foundLo, foundHi := false, false
	for _, p := range scan.Prune {
		if p.Column == "l_shipdate" && p.Min == float64(tpch.Q6ShipDateLo) {
			foundLo = true
		}
		if p.Column == "l_shipdate" && p.Max == float64(tpch.Q6ShipDateHi) {
			foundHi = true
		}
	}
	if !foundLo || !foundHi {
		t.Errorf("prune predicates = %+v missing shipdate range", scan.Prune)
	}
}

func TestOptimizedPlanSameResult(t *testing.T) {
	src, data := liSource(t, 0.002)
	cat := Catalog{"lineitem": src}
	opt, err := Optimize(q6Plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	if got := out.Column("revenue").Float64s[0]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("optimized Q6 = %v, want %v", got, want)
	}
}

func TestExtractPrunePredicatesMirrored(t *testing.T) {
	schema := tpch.Schema()
	// const <= col form must mirror into col >= const.
	pred := NewBin(OpLE, ConstInt(100), Col("l_shipdate"))
	ps := ExtractPrunePredicates(pred, schema)
	if len(ps) != 1 || ps[0].Min != 100 || !math.IsInf(ps[0].Max, 1) {
		t.Errorf("mirrored predicate = %+v", ps)
	}
	// Equality pins both bounds.
	ps = ExtractPrunePredicates(NewBin(OpEQ, Col("l_shipdate"), ConstInt(5)), schema)
	if len(ps) != 1 || ps[0].Min != 5 || ps[0].Max != 5 {
		t.Errorf("eq predicate = %+v", ps)
	}
	// Non-column comparisons contribute nothing.
	ps = ExtractPrunePredicates(NewBin(OpLT, NewBin(OpAdd, Col("a"), ConstInt(1)), ConstInt(5)), schema)
	if len(ps) != 0 {
		t.Errorf("complex predicate produced %+v", ps)
	}
}

// splitScopes cuts a plan of the shape [OrderBy] Aggregate into the worker
// scope (the partial aggregate) and the driver scope (the merge, under the
// OrderBy) — what the stage planner does with an aggregate it merges on the
// driver.
func splitScopes(t *testing.T, p Plan) (worker, driver Plan) {
	t.Helper()
	ob, _ := p.(*OrderByPlan)
	if ob != nil {
		p = ob.In
	}
	partial, final, err := SplitAggregate(p.(*AggregatePlan))
	if err != nil {
		t.Fatal(err)
	}
	if ob != nil {
		final = &OrderByPlan{In: final, Keys: ob.Keys}
	}
	return partial, final
}

func TestSplitDistributedAggEquivalence(t *testing.T) {
	// The fundamental distributed-correctness property: running the worker
	// partial plan over any partitioning of the input, concatenating, and
	// running the driver plan gives the same answer as single-node.
	src, data := liSource(t, 0.002)
	cat := Catalog{"lineitem": src}

	for _, q := range []Plan{q1Plan(), q6Plan()} {
		single, err := Execute(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		worker, driver := splitScopes(t, q)
		// Partition input into 7 "files", run the worker plan on each.
		var results []*columnar.Chunk
		for _, f := range data.Split(7) {
			wcat := Catalog{"lineitem": NewMemSource(tpch.Schema(), f)}
			r, err := Execute(worker, wcat)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		ws, err := worker.OutSchema()
		if err != nil {
			t.Fatal(err)
		}
		dcat := Catalog{WorkerResultTable: NewMemSource(ws, results...)}
		merged, err := Execute(driver, dcat)
		if err != nil {
			t.Fatal(err)
		}
		if merged.NumRows() != single.NumRows() {
			t.Fatalf("distributed rows = %d, single = %d", merged.NumRows(), single.NumRows())
		}
		for j := range single.Columns {
			for i := 0; i < single.NumRows(); i++ {
				a, b := single.Columns[j].Float64At(i), merged.Columns[j].Float64At(i)
				if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(a)) {
					t.Errorf("col %d row %d: single %v != distributed %v", j, i, a, b)
				}
			}
		}
	}
}

func TestExplainRendersTree(t *testing.T) {
	s := Explain(q1Plan())
	for _, want := range []string{"OrderBy", "Aggregate", "Filter", "Scan lineitem"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain missing %q:\n%s", want, s)
		}
	}
}

// Property: filter then concatenate equals concatenate then filter.
func TestPropertyFilterDistributesOverChunks(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	f := func(vals []int64, cut int64, splitRaw uint8) bool {
		c := columnar.NewChunk(schema, len(vals))
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, vals...)
		pred := NewBin(OpLT, Col("x"), ConstInt(cut))
		whole, err := Execute(&FilterPlan{Pred: pred, In: &ScanPlan{Table: "t"}},
			Catalog{"t": NewMemSource(schema, c)})
		if err != nil {
			return false
		}
		n := int(splitRaw)%5 + 2
		parts := c.Split(n)
		split, err := Execute(&FilterPlan{Pred: pred, In: &ScanPlan{Table: "t"}},
			Catalog{"t": NewMemSource(schema, parts...)})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(whole.Columns[0].Int64s, split.Columns[0].Int64s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SUM/COUNT/MIN/MAX/AVG over random data match a straightforward
// scalar implementation, groups in first-seen order, whether the keys are
// narrow (the key table's dense mode), wide single keys or two-column keys
// (its hashed mode), in one chunk or several (partials merged). Over a
// BIGINT whose values lie beyond 2^53, where a DOUBLE drops their low bits,
// SUM, MIN and MAX are exact and AVG is the exact SUM over the COUNT; over
// BIGINTs near 2^62, where a group's sum may leave int64's range, Execute
// fails with ErrSumOverflow instead. Differential leg: SplitAggregate's
// partial over 1–4 contiguous runs of the morsels, as that many workers, and
// its final over their partials in worker order give every column bit-equal
// to Execute's, or the same typed error.
func TestPropertyAggregatesMatchScalar(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
		columnar.Field{Name: "iv", Type: columnar.Int64},
	)
	type acc struct {
		sum        float64
		n          int64
		min, max   float64
		isum       big.Int
		imin, imax int64
	}
	f := func(keys []uint8, shape uint8) bool {
		if len(keys) == 0 {
			return true
		}
		c := columnar.NewChunk(schema, len(keys))
		want := map[[2]int64]*acc{}
		var order [][2]int64
		for _, kr := range keys {
			k := [2]int64{int64(kr % 4)}
			switch shape % 3 {
			case 1:
				k[0] = int64(kr%16) * 1000000007
			case 2:
				k = [2]int64{int64(kr % 3), int64(kr%5) * -1000000007}
			}
			v := float64(int8(kr)) * 1.25
			iv := (int64(kr%8)-4)<<55 | int64(kr) // |iv| ≤ 2^57: a SUM of under 64 rows fits
			if shape/48%2 == 1 {
				iv = int64(kr%4+1)<<60 | int64(kr) // ≤ 2^62 + 255, all positive: overflow is the total's
			}
			c.Columns[0].AppendInt64(k[0])
			c.Columns[1].AppendInt64(k[1])
			c.Columns[2].AppendFloat64(v)
			c.Columns[3].AppendInt64(iv)
			w := want[k]
			if w == nil {
				w = &acc{min: v, max: v, imin: iv, imax: iv}
				want[k] = w
				order = append(order, k)
			}
			w.sum += v
			w.n++
			w.min, w.max = math.Min(w.min, v), math.Max(w.max, v)
			w.isum.Add(&w.isum, big.NewInt(iv))
			w.imin, w.imax = min(w.imin, iv), max(w.imax, iv)
		}
		groupBy := []string{"k"}
		if shape%3 == 2 {
			groupBy = append(groupBy, "k2")
		}
		plan := &AggregatePlan{
			GroupBy: groupBy,
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("v"), Name: "s"},
				{Func: AggCount, Name: "n"},
				{Func: AggMin, Arg: Col("v"), Name: "lo"},
				{Func: AggMax, Arg: Col("v"), Name: "hi"},
				{Func: AggSum, Arg: Col("iv"), Name: "is"},
				{Func: AggMin, Arg: Col("iv"), Name: "ilo"},
				{Func: AggMax, Arg: Col("iv"), Name: "ihi"},
				{Func: AggAvg, Arg: Col("iv"), Name: "iavg"},
			},
			In: &ScanPlan{Table: "t"},
		}
		parts := c.Split(int(shape/3)%4 + 1)
		out, err := Execute(plan, Catalog{"t": NewMemSource(schema, parts...)})
		split, serr := runSplit(plan, schema, parts, int(shape/12)%4+1)
		for _, w := range want {
			if !w.isum.IsInt64() {
				return errors.Is(err, ErrSumOverflow) && errors.Is(serr, ErrSumOverflow)
			}
		}
		if err != nil || serr != nil || out.NumRows() != len(order) || chunkDigest(split) != chunkDigest(out) {
			return false
		}
		for i, k := range order {
			w := want[k]
			isum := w.isum.Int64()
			if out.Column("k").Int64s[i] != k[0] ||
				shape%3 == 2 && out.Column("k2").Int64s[i] != k[1] ||
				math.Abs(out.Column("s").Float64s[i]-w.sum) > 1e-9 ||
				out.Column("n").Int64s[i] != w.n ||
				out.Column("lo").Float64s[i] != w.min ||
				out.Column("hi").Float64s[i] != w.max ||
				out.Column("is").Int64s[i] != isum ||
				out.Column("ilo").Int64s[i] != w.imin ||
				out.Column("ihi").Int64s[i] != w.imax ||
				out.Column("iavg").Float64s[i] != float64(isum)/float64(w.n) {
				return false
			}
		}
		return true
	}
	// 150 cases, or 1.5 × -quickchecks (make fuzz-smoke's wider sweep).
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5}); err != nil {
		t.Error(err)
	}
}

// Property: an ORDER BY, with or without a LIMIT, returns what a reference
// that shares no engine code returns — rows as []any, sort.SliceStable, the
// first LIMIT of them — bit for bit: over 1–4 morsels, from a plain source or
// a counted one that takes every morsel back (and garbles it) once copied;
// with no limit, LIMIT 0, one inside the rows and one past them; by one to
// three keys mixing ASC and DESC over BIGINTs beyond 2^53 (which collapse as
// DOUBLEs), DOUBLEs and BOOLEANs, all with ties, which keep arrival order.
func TestPropertyCollectMatchesSorted(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "b", Type: columnar.Int64},
		columnar.Field{Name: "d", Type: columnar.Float64},
		columnar.Field{Name: "f", Type: columnar.Bool},
		columnar.Field{Name: "i", Type: columnar.Int64},
	)
	cols := []string{"b", "d", "f", "b"}
	appendRow := func(c *columnar.Chunk, row []any) {
		c.Columns[0].AppendInt64(row[0].(int64))
		c.Columns[1].AppendFloat64(row[1].(float64))
		c.Columns[2].AppendBool(row[2].(bool))
		c.Columns[3].AppendInt64(row[3].(int64))
	}
	f := func(vals []uint8, spec uint16) bool {
		c := columnar.NewChunk(schema, len(vals))
		rows := make([][]any, len(vals))
		for i, x := range vals {
			rows[i] = []any{(int64(x%3)-1)<<60 + int64(x%5), float64(int8(x)>>5) * 0.5, x%7 < 3, int64(i)}
			appendRow(c, rows[i])
		}
		var keys []OrderKey
		var at []int
		for k := range int(spec/16%3) + 1 {
			col := int(spec>>(6+3*k)) % 4
			keys = append(keys, OrderKey{Column: cols[col], Desc: spec>>(8+3*k)%2 == 1})
			at = append(at, col%3)
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for k, key := range keys {
				x, y := rows[a][at[k]], rows[b][at[k]]
				var c int
				switch x := x.(type) {
				case int64:
					c = cmp.Compare(x, y.(int64))
				case float64:
					c = cmp.Compare(x, y.(float64))
				case bool:
					switch {
					case x == y.(bool):
					case x:
						c = 1
					default:
						c = -1
					}
				}
				if key.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		var p Plan = &OrderByPlan{Keys: keys, In: &ScanPlan{Table: "t"}}
		switch spec / 4 % 4 {
		case 1:
			rows, p = rows[:0], &LimitPlan{N: 0, In: p}
		case 2:
			rows, p = rows[:len(rows)/2], &LimitPlan{N: len(rows) / 2, In: p}
		case 3:
			p = &LimitPlan{N: len(rows) + 5, In: p}
		}
		want := columnar.NewChunk(schema, len(rows))
		for _, row := range rows {
			appendRow(want, row)
		}
		var src Source = NewMemSource(schema, c.Split(int(spec%4)+1)...)
		if spec&(1<<15) != 0 {
			src = rowCountingSource{newRecyclingSource(t, src.(*MemSource), true)}
		}
		out, err := Execute(p, Catalog{"t": src})
		return err == nil && chunkDigest(out) == chunkDigest(want)
	}
	// 150 cases, or 1.5 × -quickchecks (make fuzz-smoke's wider sweep).
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5}); err != nil {
		t.Error(err)
	}
}

// runSplit runs p over table t as a staged query does: SplitAggregate's
// partial on each of workers workers — contiguous runs of parts, in order,
// as its morsels — then its final over their partials in worker order. It
// returns the first error.
func runSplit(p *AggregatePlan, schema *columnar.Schema, parts []*columnar.Chunk, workers int) (*columnar.Chunk, error) {
	if err := Resolve(p, Catalog{"t": NewMemSource(schema)}); err != nil {
		return nil, err
	}
	partial, final, err := SplitAggregate(p)
	if err != nil {
		return nil, err
	}
	var results []*columnar.Chunk
	for w := range workers {
		mine := parts[w*len(parts)/workers : (w+1)*len(parts)/workers]
		r, err := Execute(partial, Catalog{"t": NewMemSource(schema, mine...)})
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	ws, err := partial.OutSchema()
	if err != nil {
		return nil, err
	}
	return Execute(final, Catalog{WorkerResultTable: NewMemSource(ws, results...)})
}

// int64Table is one BIGINT column v holding vals.
func int64Table(vals ...int64) *columnar.Chunk {
	c := columnar.NewChunk(columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64}), len(vals))
	for _, v := range vals {
		c.Columns[0].AppendInt64(v)
	}
	return c
}

// TestAvgIsTheSplits: a single node's AVG is SplitAggregate's, the exact
// BIGINT SUM divided once by the COUNT. Over three rows of 2^53+1 both give
// 9007199254740994, where a per-row float sum gave 9007199254740992.
func TestAvgIsTheSplits(t *testing.T) {
	c := int64Table(1<<53+1, 1<<53+1, 1<<53+1)
	plan := &AggregatePlan{Aggs: []AggSpec{{Func: AggAvg, Arg: Col("v"), Name: "a"}}, In: &ScanPlan{Table: "t"}}
	single, err := Execute(plan, Catalog{"t": NewMemSource(c.Schema, c)})
	if err != nil {
		t.Fatal(err)
	}
	split, err := runSplit(plan, c.Schema, c.Split(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	const want = 9007199254740994
	if got, staged := single.Columns[0].Float64s[0], split.Columns[0].Float64s[0]; got != want || staged != want {
		t.Errorf("AVG = %.0f single-node, %.0f split; want %.0f", got, staged, float64(want))
	}
}

// TestBigintSumOverflowFailsTyped: a BIGINT SUM past int64's range — three
// rows of 2^62, which wrapped to -2^62 — fails with ErrSumOverflow naming the
// user's column, never a partial's, on a single node and split, whether the
// range is left inside a morsel, where morsels' partials merge, in a worker's
// partial or where the final merges workers' partials; so does an AVG over it.
func TestBigintSumOverflowFailsTyped(t *testing.T) {
	c := int64Table(1<<62, 1<<62, 1<<62)
	for _, fn := range []AggFunc{AggSum, AggAvg} {
		plan := &AggregatePlan{Aggs: []AggSpec{{Func: fn, Arg: Col("v"), Name: "total"}}, In: &ScanPlan{Table: "t"}}
		check := func(path string, out *columnar.Chunk, err error) {
			if !errors.Is(err, ErrSumOverflow) || !strings.Contains(err.Error(), "total") || strings.Contains(err.Error(), "__p") {
				t.Errorf("%s %s: got %v, err %v; want %v naming column total", fn, path, out, err, ErrSumOverflow)
			}
		}
		for morsels := 1; morsels <= 3; morsels++ {
			parts := c.Split(morsels)
			out, err := Execute(plan, Catalog{"t": NewMemSource(c.Schema, parts...)})
			check(fmt.Sprintf("single-node over %d morsels", morsels), out, err)
			for workers := 1; workers <= morsels; workers++ {
				out, err := runSplit(plan, c.Schema, parts, workers)
				check(fmt.Sprintf("split over %d morsels, %d workers", morsels, workers), out, err)
			}
		}
	}
}

// TestAggregateBoolKey: a GROUP BY over a BOOLEAN column returns each key as
// a BOOLEAN with its count (writing the keys back as BIGINT panicked).
func TestAggregateBoolKey(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "b", Type: columnar.Bool})
	c := columnar.NewChunk(schema, 5)
	for _, x := range []bool{true, false, true, true, false} {
		c.Columns[0].AppendBool(x)
	}
	out, err := Execute(&AggregatePlan{
		GroupBy: []string{"b"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "n"}},
		In:      &ScanPlan{Table: "t"},
	}, Catalog{"t": NewMemSource(schema, c)})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Column("b").Bools; !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("keys %v, want [true false]", got)
	}
	if got := out.Column("n").Int64s; !reflect.DeepEqual(got, []int64{3, 2}) {
		t.Errorf("counts %v, want [3 2]", got)
	}
}
