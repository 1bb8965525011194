package dataflow

import (
	"math"
	"strings"
	"testing"

	"lambada/internal/engine"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

func TestListing1Pipeline(t *testing.T) {
	// Listing 1: from_parquet(...).filter(x[1] >= 0.05).map(x[1]*x[2])
	// .reduce(+), expressed over named columns.
	data := tpch.Gen{SF: 0.002, Seed: 2}.Generate()
	cat := engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)}

	plan, err := FromTable("lineitem").
		Filter(GE(Col("l_discount"), LitF(0.05))).
		Map([]string{"weighted"}, Mul(Col("l_discount"), Col("l_extendedprice"))).
		Reduce(Sum(Col("weighted"), "total")).
		Plan()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar reference.
	var want float64
	disc := data.Column("l_discount").Float64s
	price := data.Column("l_extendedprice").Float64s
	for i := range disc {
		if disc[i] >= 0.05 {
			want += disc[i] * price[i]
		}
	}
	got := out.Column("total").Float64s[0]
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("total = %v, want %v", got, want)
	}
}

func TestGroupByAggOrderLimit(t *testing.T) {
	data := tpch.Gen{SF: 0.002, Seed: 2}.Generate()
	cat := engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)}
	plan, err := FromTable("lineitem").
		GroupBy("l_returnflag").
		Agg(Count("n"), Avg(Col("l_quantity"), "aq"), Min(Col("l_quantity"), "lo"), Max(Col("l_quantity"), "hi")).
		OrderBy(engine.OrderKey{Column: "n", Desc: true}).
		Limit(2).
		Plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Column("n").Int64s[0] < out.Column("n").Int64s[1] {
		t.Error("not ordered by count desc")
	}
	for i := 0; i < 2; i++ {
		if lo, hi := out.Column("lo").Float64s[i], out.Column("hi").Float64s[i]; lo > hi {
			t.Errorf("min %v > max %v", lo, hi)
		}
	}
}

func TestSelectProjectsColumns(t *testing.T) {
	plan, err := FromTable("t").Select("a", "b").Plan()
	if err != nil {
		t.Fatal(err)
	}
	s := engine.Explain(plan)
	if !strings.Contains(s, "Project a AS a, b AS b") {
		t.Errorf("explain:\n%s", s)
	}
}

func TestExpressionHelpers(t *testing.T) {
	e := And(LE(Col("x"), Lit(3)), LT(Sub(Col("y"), Lit(1)), Add(Col("z"), LitF(0.5))))
	s := e.String()
	for _, want := range []string{"x <= 3", "y - 1", "z + 0.5", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("expr %q missing %q", s, want)
		}
	}
}

func TestJoinPipeline(t *testing.T) {
	g := tpch.Gen{SF: 0.002, Seed: 8}
	li := g.Generate()
	sup := g.Supplier()
	cat := engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"supplier": engine.NewMemSource(tpch.SupplierSchema(), sup),
	}
	plan, err := FromTable("lineitem").
		Join(FromTable("supplier"), "l_suppkey", "s_suppkey").
		GroupBy("s_nationkey").
		Agg(Count("n")).
		Plan()
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Every lineitem row joins exactly one supplier, so counts sum to the
	// full relation.
	var total int64
	for i := 0; i < out.NumRows(); i++ {
		total += out.Column("n").Int64s[i]
	}
	if total != int64(li.NumRows()) {
		t.Errorf("joined counts sum to %d, want %d", total, li.NumRows())
	}
}

func TestPipelineDistributes(t *testing.T) {
	// Dataflow pipelines split into worker/driver scopes like SQL plans.
	plan, err := FromTable("t").
		Filter(GE(Col("l_discount"), LitF(0.05))).
		Reduce(Sum(Col("l_discount"), "s"), Count("n")).
		Plan()
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.Catalog{"t": engine.NewMemSource(tpch.Schema())}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stageplan.Decompose(opt, stageplan.Stats{}, stageplan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages) != 1 || sp.Driver == nil {
		t.Fatalf("scopes missing:\n%s", stageplan.Explain(sp))
	}
	if !strings.Contains(engine.Explain(sp.Stages[0].Plan), "Aggregate") {
		t.Error("worker scope lost the partial aggregation")
	}
}
