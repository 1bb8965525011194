package engine

import (
	"math"
	"reflect"
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

	sum := NewBin(OpAdd, Col("i"), Col("i"))
	if tp, _ := sum.Type(schema); tp != columnar.Int64 {
		t.Errorf("int+int type = %v", tp)
	}
	v, err := sum.Eval(c)
	if err != nil || !reflect.DeepEqual(v.Int64s, []int64{2, 4, 6}) {
		t.Errorf("int+int = %v, %v", v, err)
	}

	mixed := NewBin(OpMul, Col("i"), Col("f"))
	if tp, _ := mixed.Type(schema); tp != columnar.Float64 {
		t.Errorf("int*float type = %v", tp)
	}
	v, _ = mixed.Eval(c)
	if !reflect.DeepEqual(v.Float64s, []float64{0, 3, 9}) {
		t.Errorf("int*float = %v", v.Float64s)
	}

	div := NewBin(OpDiv, Col("i"), Col("i"))
	if tp, _ := div.Type(schema); tp != columnar.Float64 {
		t.Errorf("div type = %v (division always yields float)", tp)
	}

	cmp := NewBin(OpGE, Col("i"), ConstInt(2))
	v, _ = cmp.Eval(c)
	if !reflect.DeepEqual(v.Bools, []bool{false, true, true}) {
		t.Errorf("cmp = %v", v.Bools)
	}

	logic := NewBin(OpAnd, cmp, Col("b"))
	v, _ = logic.Eval(c)
	if !reflect.DeepEqual(v.Bools, []bool{false, false, true}) {
		t.Errorf("and = %v", v.Bools)
	}

	not := &Not{E: Col("b")}
	v, _ = not.Eval(c)
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
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}, {Func: AggSum, Arg: Col("x"), Name: "s"}},
		In:   &ScanPlan{Table: "t"},
	}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column("n").Int64s[0] != 0 {
		t.Errorf("empty aggregate = %v rows, n=%v", out.NumRows(), out.Column("n"))
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
		for _, f := range tpch.SplitFiles(data, 7) {
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
		parts := tpch.SplitFiles(c, n)
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

// Property: SUM/COUNT/MIN/MAX over random data match a straightforward
// scalar implementation.
func TestPropertyAggregatesMatchScalar(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	f := func(keys []uint8, seedRaw int64) bool {
		if len(keys) == 0 {
			return true
		}
		c := columnar.NewChunk(schema, len(keys))
		want := map[int64]*struct {
			sum      float64
			n        int64
			min, max float64
		}{}
		for i, kr := range keys {
			k := int64(kr % 4)
			v := float64(int8(kr)) * 1.25
			c.Columns[0].AppendInt64(k)
			c.Columns[1].AppendFloat64(v)
			w := want[k]
			if w == nil {
				w = &struct {
					sum      float64
					n        int64
					min, max float64
				}{min: v, max: v}
				want[k] = w
			}
			w.sum += v
			w.n++
			if v < w.min {
				w.min = v
			}
			if v > w.max {
				w.max = v
			}
			_ = i
		}
		plan := &AggregatePlan{
			GroupBy: []string{"k"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("v"), Name: "s"},
				{Func: AggCount, Name: "n"},
				{Func: AggMin, Arg: Col("v"), Name: "lo"},
				{Func: AggMax, Arg: Col("v"), Name: "hi"},
			},
			In: &ScanPlan{Table: "t"},
		}
		out, err := Execute(plan, Catalog{"t": NewMemSource(schema, c)})
		if err != nil {
			return false
		}
		if out.NumRows() != len(want) {
			return false
		}
		for i := 0; i < out.NumRows(); i++ {
			k := out.Column("k").Int64s[i]
			w := want[k]
			if w == nil {
				return false
			}
			if math.Abs(out.Column("s").Float64s[i]-w.sum) > 1e-9 ||
				out.Column("n").Int64s[i] != w.n ||
				out.Column("lo").Float64s[i] != w.min ||
				out.Column("hi").Float64s[i] != w.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
