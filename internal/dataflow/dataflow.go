// Package dataflow is the fluent, UDF-style frontend of Lambada, mirroring
// the paper's Listing 1:
//
//	data = lambada.from_parquet('s3://bucket/*.parquet')
//	             .filter(lambda x: x[1] >= 0.05)
//	             .map(lambda x: x[1] * x[2])
//	             .reduce(lambda x, y: x + y)
//
// In Go, the "UDFs" are expression trees over named columns, which keeps
// them analyzable: the same selection/projection push-downs and
// distributed-plan splitting apply as for SQL queries (§3.2). The pipeline
// builds an engine.Plan that runs locally or on the serverless fleet.
package dataflow

import (
	"lambada/internal/engine"
)

// Dataset is a lazily-built query over one table.
type Dataset struct {
	plan engine.Plan
}

// FromTable starts a pipeline over a named table (bound to files or memory
// at execution time).
func FromTable(name string) *Dataset {
	return &Dataset{plan: &engine.ScanPlan{Table: name}}
}

// Filter keeps rows satisfying pred.
func (d *Dataset) Filter(pred engine.Expr) *Dataset {
	return &Dataset{plan: &engine.FilterPlan{In: d.plan, Pred: pred}}
}

// Map computes one named expression per output column.
func (d *Dataset) Map(names []string, exprs ...engine.Expr) *Dataset {
	return &Dataset{plan: &engine.ProjectPlan{In: d.plan, Exprs: exprs, Names: names}}
}

// Reduce computes global aggregates (the .reduce of Listing 1).
func (d *Dataset) Reduce(aggs ...engine.AggSpec) *Dataset {
	return &Dataset{plan: &engine.AggregatePlan{In: d.plan, Aggs: aggs}}
}

// Plan returns the built logical plan.
func (d *Dataset) Plan() engine.Plan { return d.plan }

// Convenience constructors for expressions, so pipelines read like
// Listing 1 without importing engine at every call site.

// Col references a column.
func Col(name string) engine.Expr { return engine.Col(name) }

// LitF builds a float literal.
func LitF(v float64) engine.Expr { return engine.ConstFloat(v) }

// Mul multiplies.
func Mul(l, r engine.Expr) engine.Expr { return engine.NewBin(engine.OpMul, l, r) }

// GE compares >=.
func GE(l, r engine.Expr) engine.Expr { return engine.NewBin(engine.OpGE, l, r) }

// Sum aggregates.
func Sum(e engine.Expr, name string) engine.AggSpec {
	return engine.AggSpec{Func: engine.AggSum, Arg: e, Name: name}
}

// Count counts rows.
func Count(name string) engine.AggSpec {
	return engine.AggSpec{Func: engine.AggCount, Name: name}
}
