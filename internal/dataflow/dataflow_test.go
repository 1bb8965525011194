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

	plan := FromTable("lineitem").
		Filter(GE(Col("l_discount"), LitF(0.05))).
		Map([]string{"weighted"}, Mul(Col("l_discount"), Col("l_extendedprice"))).
		Reduce(Sum(Col("weighted"), "total")).
		Plan()
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

func TestSelectProjectsColumns(t *testing.T) {
	s := engine.Explain(FromTable("t").Map([]string{"a", "b"}, Col("a"), Col("b")).Plan())
	if !strings.Contains(s, "Project a AS a, b AS b") {
		t.Errorf("explain:\n%s", s)
	}
}

func TestExpressionHelpers(t *testing.T) {
	e := GE(Mul(Col("x"), Col("y")), LitF(0.5))
	s := e.String()
	for _, want := range []string{"x * y", ">= 0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("expr %q missing %q", s, want)
		}
	}
}

func TestPipelineDistributes(t *testing.T) {
	// Dataflow pipelines split into worker/driver scopes like SQL plans.
	plan := FromTable("t").
		Filter(GE(Col("l_discount"), LitF(0.05))).
		Reduce(Sum(Col("l_discount"), "s"), Count("n")).
		Plan()
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
