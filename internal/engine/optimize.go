package engine

import (
	"fmt"
	"math"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Optimize applies the common optimization set of §3.2 to a resolved plan:
// selection push-down into scans (including extraction of min/max-prunable
// predicates) and projection push-down.
func Optimize(p Plan, cat Catalog) (Plan, error) {
	if err := Resolve(p, cat); err != nil {
		return nil, err
	}
	p = pushDownFilters(p)
	if err := pushDownProjections(p); err != nil {
		return nil, err
	}
	return p, nil
}

// pushDownFilters moves filter predicates adjacent to scans into the scan
// node and derives prune predicates. Filters sitting above a join are split
// into conjuncts and pushed to whichever side covers their columns (WHERE
// after INNER JOIN filters before the join, restoring scan filtering and
// row-group pruning on the probe side).
func pushDownFilters(p Plan) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		child := pushDownFilters(n.In)
		if scan, ok := child.(*ScanPlan); ok {
			scan.Filter = And(scan.Filter, n.Pred)
			scan.Prune = append(scan.Prune, ExtractPrunePredicates(n.Pred, scan.TableSchema)...)
			return scan
		}
		if j, ok := child.(*JoinPlan); ok {
			if rest := pushThroughJoin(j, n.Pred); rest == nil {
				return j
			} else {
				n.Pred = rest
			}
		}
		n.In = child
		return n
	case *ProjectPlan:
		n.In = pushDownFilters(n.In)
		return n
	case *AggregatePlan:
		n.In = pushDownFilters(n.In)
		return n
	case *OrderByPlan:
		n.In = pushDownFilters(n.In)
		return n
	case *LimitPlan:
		n.In = pushDownFilters(n.In)
		return n
	case *JoinPlan:
		n.Left = pushDownFilters(n.Left)
		n.Right = pushDownFilters(n.Right)
		return n
	default:
		return p
	}
}

// pushThroughJoin pushes the conjuncts of pred whose columns one join side
// fully covers below the join (filtering before probing is semantics-
// preserving for an inner join and keeps row order), re-running the scan
// push-down on each side. It returns the conjunction of what could not be
// pushed (nil if everything moved).
func pushThroughJoin(j *JoinPlan, pred Expr) (rest Expr) {
	ls, lerr := j.Left.OutSchema()
	rs, rerr := j.Right.OutSchema()
	if lerr != nil || rerr != nil {
		return pred
	}
	covered := func(s *columnar.Schema, cols []string) bool {
		for _, c := range cols {
			if s.Index(c) < 0 {
				return false
			}
		}
		return true
	}
	var left, right Expr
	for _, c := range SplitConjuncts(pred) {
		cols := c.Columns(nil)
		switch {
		case covered(ls, cols):
			left = And(left, c)
		case covered(rs, cols):
			right = And(right, c)
		default:
			rest = And(rest, c)
		}
	}
	if left != nil {
		j.Left = pushDownFilters(&FilterPlan{In: j.Left, Pred: left})
	}
	if right != nil {
		j.Right = pushDownFilters(&FilterPlan{In: j.Right, Pred: right})
	}
	return rest
}

// ExtractPrunePredicates turns conjuncts of the form (col cmp const) into
// min/max range predicates testable against row-group statistics.
func ExtractPrunePredicates(pred Expr, schema *columnar.Schema) []lpq.Predicate {
	var out []lpq.Predicate
	for _, e := range SplitConjuncts(pred) {
		b, ok := e.(*Bin)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, cok := b.L.(Col)
		val, iv, isInt, vok := constValue(b.R)
		op := b.Op
		if !cok || !vok {
			// Try the mirrored form (const cmp col).
			col, cok = b.R.(Col)
			val, iv, isInt, vok = constValue(b.L)
			if !cok || !vok {
				continue
			}
			op = mirror(op)
		}
		if schema != nil && schema.Index(string(col)) < 0 {
			continue
		}
		p := lpq.Predicate{Column: string(col), Min: math.Inf(-1), Max: math.Inf(1)}
		if isInt {
			// Carry the exact integer bounds: Int64 columns prune via these
			// (the float mirror is lossy above 2^53). Admits falls back to
			// the float interval for non-Int64 columns.
			p.HasInt = true
			p.MinInt, p.MaxInt = math.MinInt64, math.MaxInt64
		}
		switch op {
		case OpEQ:
			p.Min, p.Max = val, val
			p.MinInt, p.MaxInt = iv, iv
		case OpLT, OpLE:
			p.Max = val
			p.MaxInt = iv
			if op == OpLT && iv > math.MinInt64 {
				// col < iv over integers means col <= iv-1.
				p.MaxInt = iv - 1
			}
		case OpGT, OpGE:
			p.Min = val
			p.MinInt = iv
			if op == OpGT && iv < math.MaxInt64 {
				p.MinInt = iv + 1
			}
		default: // OpNE prunes nothing
			continue
		}
		out = append(out, p)
	}
	return out
}

func constValue(e Expr) (f float64, iv int64, isInt bool, ok bool) {
	switch v := e.(type) {
	case ConstInt:
		return float64(v), int64(v), true, true
	case ConstFloat:
		return float64(v), 0, false, true
	default:
		return 0, 0, false, false
	}
}

func mirror(op BinOp) BinOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return op
	}
}

// pushDownProjections computes the columns each scan actually needs and
// restricts the scan projection accordingly. "Needs everything" is tracked
// per scan, not globally: a join's broadcast side staying whole must not
// disable projection push-down on the probe-side scan.
func pushDownProjections(p Plan) error {
	needed, needsAll := requiredColumns(p)
	var apply func(Plan)
	apply = func(n Plan) {
		for ; n != nil; n = n.Child() {
			if j, ok := n.(*JoinPlan); ok {
				apply(j.Right)
			}
			if scan, ok := n.(*ScanPlan); ok && scan.Projection == nil && !needsAll[scan] {
				// Preserve schema order for readability.
				var cols []string
				for _, f := range scan.TableSchema.Fields {
					if needed[f.Name] {
						cols = append(cols, f.Name)
					}
				}
				scan.Projection = cols
			}
		}
	}
	apply(p)
	return nil
}

// requiredColumns walks the plan and collects every referenced column name,
// plus the set of scans some consumer needs whole (e.g. a bare scan
// result, or a join's broadcast side).
func requiredColumns(p Plan) (map[string]bool, map[*ScanPlan]bool) {
	needed := map[string]bool{}
	needsAll := map[*ScanPlan]bool{}
	var walk func(Plan, bool)
	walk = func(n Plan, parentNeedsAll bool) {
		switch t := n.(type) {
		case *ScanPlan:
			if t.Filter != nil {
				for _, c := range t.Filter.Columns(nil) {
					needed[c] = true
				}
			}
			if parentNeedsAll && t.Projection == nil {
				needsAll[t] = true
			}
		case *FilterPlan:
			for _, c := range t.Pred.Columns(nil) {
				needed[c] = true
			}
			walk(t.In, parentNeedsAll)
		case *ProjectPlan:
			for _, e := range t.Exprs {
				for _, c := range e.Columns(nil) {
					needed[c] = true
				}
			}
			walk(t.In, false)
		case *AggregatePlan:
			for _, g := range t.GroupBy {
				needed[g] = true
			}
			for _, a := range t.Aggs {
				if a.Arg != nil {
					for _, c := range a.Arg.Columns(nil) {
						needed[c] = true
					}
				}
			}
			walk(t.In, false)
		case *OrderByPlan:
			for _, k := range t.Keys {
				needed[k.Column] = true
			}
			walk(t.In, parentNeedsAll)
		case *LimitPlan:
			walk(t.In, parentNeedsAll)
		case *JoinPlan:
			lk, rk := t.keyNames()
			for _, k := range lk {
				needed[k] = true
			}
			for _, k := range rk {
				needed[k] = true
			}
			walk(t.Left, parentNeedsAll)
			// The build side inherits the parent's needs: when the query
			// names its output columns (projection or aggregation above),
			// the build-side scan prunes like any other — essential for
			// shuffle joins, whose build side is a large scan. Only a bare
			// join result keeps both sides whole, so its columns survive
			// into the join output.
			walk(t.Right, parentNeedsAll)
		}
	}
	walk(p, true)
	return needed, needsAll
}

// WorkerResultTable is the driver-scope table name bound to collected
// worker results (§3.2: "a query plan is divided into scopes, each of which
// may run on a different target platform").
const WorkerResultTable = "__worker_results"

// SplitAggregate decomposes an aggregation into a worker partial and a
// driver final merge. AVG becomes SUM+COUNT partials recombined by a final
// projection; SUM/COUNT/MIN/MAX merge with SUM/SUM/MIN/MAX.
func SplitAggregate(p *AggregatePlan) (partial *AggregatePlan, final Plan, err error) {
	partial = &AggregatePlan{In: p.In, GroupBy: p.GroupBy}
	mergeAggs := []AggSpec{}
	// Final projection reconstructing the requested outputs.
	var exprs []Expr
	var names []string
	for _, g := range p.GroupBy {
		exprs = append(exprs, Col(g))
		names = append(names, g)
	}
	for i, a := range p.Aggs {
		switch a.Func {
		case AggSum:
			name := partialName(a.Name, i, "sum")
			partial.Aggs = append(partial.Aggs, AggSpec{Func: AggSum, Arg: a.Arg, Name: name})
			mergeAggs = append(mergeAggs, AggSpec{Func: AggSum, Arg: Col(name), Name: name})
			exprs = append(exprs, Col(name))
		case AggCount:
			name := partialName(a.Name, i, "cnt")
			partial.Aggs = append(partial.Aggs, AggSpec{Func: AggCount, Arg: nil, Name: name})
			mergeAggs = append(mergeAggs, AggSpec{Func: AggSum, Arg: Col(name), Name: name})
			exprs = append(exprs, Col(name))
		case AggAvg:
			sname := partialName(a.Name, i, "sum")
			cname := partialName(a.Name, i, "cnt")
			partial.Aggs = append(partial.Aggs,
				AggSpec{Func: AggSum, Arg: a.Arg, Name: sname},
				AggSpec{Func: AggCount, Arg: nil, Name: cname},
			)
			mergeAggs = append(mergeAggs,
				AggSpec{Func: AggSum, Arg: Col(sname), Name: sname},
				AggSpec{Func: AggSum, Arg: Col(cname), Name: cname},
			)
			exprs = append(exprs, NewBin(OpDiv, Col(sname), Col(cname)))
		case AggMin:
			name := partialName(a.Name, i, "min")
			partial.Aggs = append(partial.Aggs, AggSpec{Func: AggMin, Arg: a.Arg, Name: name})
			mergeAggs = append(mergeAggs, AggSpec{Func: AggMin, Arg: Col(name), Name: name})
			exprs = append(exprs, Col(name))
		case AggMax:
			name := partialName(a.Name, i, "max")
			partial.Aggs = append(partial.Aggs, AggSpec{Func: AggMax, Arg: a.Arg, Name: name})
			mergeAggs = append(mergeAggs, AggSpec{Func: AggMax, Arg: Col(name), Name: name})
			exprs = append(exprs, Col(name))
		default:
			return nil, nil, fmt.Errorf("engine: cannot split aggregate %v", a.Func)
		}
		names = append(names, a.Name)
	}
	ws, err := partial.OutSchema()
	if err != nil {
		return nil, nil, err
	}
	merge := &AggregatePlan{
		In:      &ScanPlan{Table: WorkerResultTable, TableSchema: ws},
		GroupBy: p.GroupBy,
		Aggs:    mergeAggs,
	}
	final = &ProjectPlan{In: merge, Exprs: exprs, Names: names}
	return partial, final, nil
}

func partialName(name string, i int, kind string) string {
	return fmt.Sprintf("__p%d_%s_%s", i, kind, name)
}
