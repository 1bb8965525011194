package engine

import (
	"fmt"
	"strings"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Source abstracts where a scan's chunks come from: an in-memory table or
// the S3-backed Parquet scan operator. Implementations receive the
// pushed-down projection and prunable predicates.
type Source interface {
	// Schema returns the source's full schema.
	Schema() (*columnar.Schema, error)
	// Scan yields chunks restricted to proj columns (nil = all) after
	// pruning row groups that cannot match preds.
	Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error
}

// FilterableSource is a Source that evaluates the scan's residual filter
// itself and yields pre-filtered chunks, enabling late materialization:
// fetch the filter's columns first, and fetch payload columns only where
// the selection is non-empty. The optimizer guarantees preds are implied by
// filter (ExtractPrunePredicates runs on the pushed-down filter), so
// implementations may use either freely. Pipelines skip their own filter
// stage when the source implements this interface.
type FilterableSource interface {
	Source
	// ScanFiltered yields proj-restricted chunks containing exactly the
	// rows satisfying filter (never nil when the source is filterable).
	ScanFiltered(proj []string, preds []lpq.Predicate, filter Expr, yield func(*columnar.Chunk) error) error
}

// AggFunc is an aggregate function kind.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggSum: "SUM", AggCount: "COUNT", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String names the function.
func (f AggFunc) String() string { return aggNames[f] }

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	// Arg is the aggregated expression (nil for COUNT(*)).
	Arg Expr
	// Name is the output column name.
	Name string
}

// String renders e.g. "SUM(x) AS s".
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Func, arg, a.Name)
}

// Plan is a logical query plan node.
type Plan interface {
	// OutSchema computes the node's output schema.
	OutSchema() (*columnar.Schema, error)
	// Child returns the input plan (nil for leaves).
	Child() Plan
	// String renders one line describing the node.
	String() string
}

// ScanPlan reads a table from a source.
type ScanPlan struct {
	// Table names the source in the executor's catalog.
	Table string
	// Projection restricts the columns read (nil = all); filled in by the
	// optimizer's projection push-down.
	Projection []string
	// Filter is a pushed-down predicate evaluated right after each chunk
	// is materialized.
	Filter Expr
	// Prune holds min/max-testable predicates used for row-group pruning.
	Prune []lpq.Predicate
	// schema is the resolved source schema (set by the planner).
	TableSchema *columnar.Schema
}

// OutSchema returns the projected schema.
func (p *ScanPlan) OutSchema() (*columnar.Schema, error) {
	if p.TableSchema == nil {
		return nil, fmt.Errorf("engine: scan of %q has no resolved schema", p.Table)
	}
	if p.Projection == nil {
		return p.TableSchema, nil
	}
	return p.TableSchema.Project(p.Projection...)
}

// Child returns nil.
func (p *ScanPlan) Child() Plan { return nil }

// String describes the scan.
func (p *ScanPlan) String() string {
	s := "Scan " + p.Table
	if p.Projection != nil {
		s += " [" + strings.Join(p.Projection, ", ") + "]"
	}
	if p.Filter != nil {
		s += " filter=" + p.Filter.String()
	}
	if len(p.Prune) > 0 {
		s += fmt.Sprintf(" prune=%d", len(p.Prune))
	}
	return s
}

// FilterPlan keeps rows where Pred is true.
type FilterPlan struct {
	In   Plan
	Pred Expr
}

// OutSchema passes through.
func (p *FilterPlan) OutSchema() (*columnar.Schema, error) { return p.In.OutSchema() }

// Child returns the input.
func (p *FilterPlan) Child() Plan { return p.In }

// String describes the filter.
func (p *FilterPlan) String() string { return "Filter " + p.Pred.String() }

// ProjectPlan computes named expressions.
type ProjectPlan struct {
	In    Plan
	Exprs []Expr
	Names []string
}

// OutSchema types each expression.
func (p *ProjectPlan) OutSchema() (*columnar.Schema, error) {
	in, err := p.In.OutSchema()
	if err != nil {
		return nil, err
	}
	out := &columnar.Schema{}
	for i, e := range p.Exprs {
		t, err := e.Type(in)
		if err != nil {
			return nil, err
		}
		out.Fields = append(out.Fields, columnar.Field{Name: p.Names[i], Type: t})
	}
	return out, nil
}

// Child returns the input.
func (p *ProjectPlan) Child() Plan { return p.In }

// String describes the projection.
func (p *ProjectPlan) String() string {
	parts := make([]string, len(p.Exprs))
	for i := range p.Exprs {
		parts[i] = p.Exprs[i].String() + " AS " + p.Names[i]
	}
	return "Project " + strings.Join(parts, ", ")
}

// AggregatePlan groups by key columns and computes aggregates. An empty
// GroupBy computes a single global row.
type AggregatePlan struct {
	In      Plan
	GroupBy []string
	Aggs    []AggSpec
}

// OutSchema is group keys followed by aggregate outputs.
func (p *AggregatePlan) OutSchema() (*columnar.Schema, error) {
	in, err := p.In.OutSchema()
	if err != nil {
		return nil, err
	}
	out := &columnar.Schema{}
	for _, g := range p.GroupBy {
		i := in.Index(g)
		if i < 0 {
			return nil, fmt.Errorf("engine: group key %q not in input", g)
		}
		out.Fields = append(out.Fields, in.Fields[i])
	}
	for _, a := range p.Aggs {
		t := columnar.Float64
		switch a.Func {
		case AggCount:
			t = columnar.Int64
		case AggSum, AggMin, AggMax:
			if a.Arg != nil {
				at, err := a.Arg.Type(in)
				if err != nil {
					return nil, err
				}
				t = at
				if t == columnar.Bool {
					return nil, fmt.Errorf("engine: %s over boolean", a.Func)
				}
			}
		}
		out.Fields = append(out.Fields, columnar.Field{Name: a.Name, Type: t})
	}
	return out, nil
}

// Child returns the input.
func (p *AggregatePlan) Child() Plan { return p.In }

// String describes the aggregation.
func (p *AggregatePlan) String() string {
	parts := make([]string, len(p.Aggs))
	for i := range p.Aggs {
		parts[i] = p.Aggs[i].String()
	}
	s := "Aggregate " + strings.Join(parts, ", ")
	if len(p.GroupBy) > 0 {
		s += " GROUP BY " + strings.Join(p.GroupBy, ", ")
	}
	return s
}

// OrderKey is one sort key.
type OrderKey struct {
	Column string
	Desc   bool
}

// OrderByPlan sorts rows (a driver-side operation on small results).
type OrderByPlan struct {
	In   Plan
	Keys []OrderKey
}

// OutSchema passes through.
func (p *OrderByPlan) OutSchema() (*columnar.Schema, error) { return p.In.OutSchema() }

// Child returns the input.
func (p *OrderByPlan) Child() Plan { return p.In }

// String describes the sort.
func (p *OrderByPlan) String() string {
	parts := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		parts[i] = k.Column
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "OrderBy " + strings.Join(parts, ", ")
}

// LimitPlan truncates to N rows.
type LimitPlan struct {
	In Plan
	N  int
}

// OutSchema passes through.
func (p *LimitPlan) OutSchema() (*columnar.Schema, error) { return p.In.OutSchema() }

// Child returns the input.
func (p *LimitPlan) Child() Plan { return p.In }

// String describes the limit.
func (p *LimitPlan) String() string { return fmt.Sprintf("Limit %d", p.N) }

// VisitScans calls fn for every ScanPlan reachable from p. Child() returns
// a join's left (probe) input, so the join's build side needs explicit
// recursion — this helper owns that invariant for every walker that must
// enumerate scans (table discovery, scan rebinding, broadcast shipping).
func VisitScans(p Plan, fn func(*ScanPlan)) {
	for n := p; n != nil; n = n.Child() {
		if s, ok := n.(*ScanPlan); ok {
			fn(s)
		}
		if j, ok := n.(*JoinPlan); ok {
			VisitScans(j.Right, fn)
		}
	}
}

// Explain renders the plan tree indented.
func Explain(p Plan) string {
	var b strings.Builder
	depth := 0
	for n := p; n != nil; n = n.Child() {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		depth++
	}
	return b.String()
}
