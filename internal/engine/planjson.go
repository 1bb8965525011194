package engine

import (
	"encoding/json"
	"fmt"

	"lambada/internal/columnar"
)

// Plans and expressions are serialized as tagged JSON unions so the driver
// can ship worker plan fragments inside invocation payloads (§3.3: "this
// event handler extracts the ID of the worker, the query plan fragment, and
// its input from the invocation parameters").

type exprJSON struct {
	Kind  string    `json:"kind"`
	Name  string    `json:"name,omitempty"`  // col
	Int   int64     `json:"int,omitempty"`   // const int
	Float float64   `json:"float,omitempty"` // const float
	Op    uint8     `json:"op,omitempty"`    // bin
	L     *exprJSON `json:"l,omitempty"`
	R     *exprJSON `json:"r,omitempty"`
	E     *exprJSON `json:"e,omitempty"` // not
}

func encodeExpr(e Expr) (*exprJSON, error) {
	switch v := e.(type) {
	case nil:
		return nil, nil
	case Col:
		return &exprJSON{Kind: "col", Name: string(v)}, nil
	case ConstInt:
		return &exprJSON{Kind: "int", Int: int64(v)}, nil
	case ConstFloat:
		return &exprJSON{Kind: "float", Float: float64(v)}, nil
	case *Bin:
		l, err := encodeExpr(v.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(v.R)
		if err != nil {
			return nil, err
		}
		return &exprJSON{Kind: "bin", Op: uint8(v.Op), L: l, R: r}, nil
	case *Not:
		inner, err := encodeExpr(v.E)
		if err != nil {
			return nil, err
		}
		return &exprJSON{Kind: "not", E: inner}, nil
	default:
		return nil, fmt.Errorf("engine: cannot serialize expression %T", e)
	}
}

func decodeExpr(j *exprJSON) (Expr, error) {
	if j == nil {
		return nil, nil
	}
	switch j.Kind {
	case "col":
		return Col(j.Name), nil
	case "int":
		return ConstInt(j.Int), nil
	case "float":
		return ConstFloat(j.Float), nil
	case "bin":
		l, err := decodeExpr(j.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(j.R)
		if err != nil {
			return nil, err
		}
		if j.Op > uint8(OpOr) {
			return nil, fmt.Errorf("engine: bad operator %d", j.Op)
		}
		return NewBin(BinOp(j.Op), l, r), nil
	case "not":
		inner, err := decodeExpr(j.E)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	default:
		return nil, fmt.Errorf("engine: unknown expression kind %q", j.Kind)
	}
}

type fieldJSON struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

type aggJSON struct {
	Func uint8     `json:"func"`
	Arg  *exprJSON `json:"arg,omitempty"`
	Name string    `json:"name"`
}

type planJSON struct {
	Kind string `json:"kind"`

	// scan; its prune predicates are derived from its filter on decode
	Table      string      `json:"table,omitempty"`
	Projection []string    `json:"projection,omitempty"`
	Filter     *exprJSON   `json:"filter,omitempty"`
	Schema     []fieldJSON `json:"schema,omitempty"`

	// filter / project / agg / orderby / limit
	In      *planJSON   `json:"in,omitempty"`
	Pred    *exprJSON   `json:"pred,omitempty"`
	Exprs   []*exprJSON `json:"exprs,omitempty"`
	Names   []string    `json:"names,omitempty"`
	GroupBy []string    `json:"groupBy,omitempty"`
	Aggs    []aggJSON   `json:"aggs,omitempty"`
	Keys    []OrderKey  `json:"keys,omitempty"`
	N       int         `json:"n,omitempty"`

	// join
	Right     *planJSON `json:"right,omitempty"`
	LeftKeys  []string  `json:"leftKeys,omitempty"`
	RightKeys []string  `json:"rightKeys,omitempty"`
}

func encodeSchema(s *columnar.Schema) []fieldJSON {
	if s == nil {
		return nil
	}
	out := make([]fieldJSON, s.Len())
	for i, f := range s.Fields {
		out[i] = fieldJSON{Name: f.Name, Type: uint8(f.Type)}
	}
	return out
}

func decodeSchema(fs []fieldJSON) *columnar.Schema {
	if fs == nil {
		return nil
	}
	s := &columnar.Schema{}
	for _, f := range fs {
		s.Fields = append(s.Fields, columnar.Field{Name: f.Name, Type: columnar.Type(f.Type)})
	}
	return s
}

func encodePlanNode(p Plan) (*planJSON, error) {
	switch n := p.(type) {
	case *ScanPlan:
		out := &planJSON{
			Kind:       "scan",
			Table:      n.Table,
			Projection: n.Projection,
			Schema:     encodeSchema(n.TableSchema),
		}
		f, err := encodeExpr(n.Filter)
		if err != nil {
			return nil, err
		}
		out.Filter = f
		return out, nil
	case *FilterPlan:
		in, err := encodePlanNode(n.In)
		if err != nil {
			return nil, err
		}
		pred, err := encodeExpr(n.Pred)
		if err != nil {
			return nil, err
		}
		return &planJSON{Kind: "filter", In: in, Pred: pred}, nil
	case *ProjectPlan:
		in, err := encodePlanNode(n.In)
		if err != nil {
			return nil, err
		}
		out := &planJSON{Kind: "project", In: in, Names: n.Names}
		for _, e := range n.Exprs {
			ej, err := encodeExpr(e)
			if err != nil {
				return nil, err
			}
			out.Exprs = append(out.Exprs, ej)
		}
		return out, nil
	case *AggregatePlan:
		in, err := encodePlanNode(n.In)
		if err != nil {
			return nil, err
		}
		out := &planJSON{Kind: "agg", In: in, GroupBy: n.GroupBy}
		for _, a := range n.Aggs {
			aj := aggJSON{Func: uint8(a.Func), Name: a.Name}
			if a.Arg != nil {
				e, err := encodeExpr(a.Arg)
				if err != nil {
					return nil, err
				}
				aj.Arg = e
			}
			out.Aggs = append(out.Aggs, aj)
		}
		return out, nil
	case *OrderByPlan:
		in, err := encodePlanNode(n.In)
		if err != nil {
			return nil, err
		}
		return &planJSON{Kind: "orderby", In: in, Keys: n.Keys}, nil
	case *LimitPlan:
		in, err := encodePlanNode(n.In)
		if err != nil {
			return nil, err
		}
		return &planJSON{Kind: "limit", In: in, N: n.N}, nil
	case *JoinPlan:
		left, err := encodePlanNode(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := encodePlanNode(n.Right)
		if err != nil {
			return nil, err
		}
		return &planJSON{
			Kind: "join", In: left, Right: right,
			LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
		}, nil
	default:
		return nil, fmt.Errorf("engine: cannot serialize plan node %T", p)
	}
}

func decodePlanNode(j *planJSON) (Plan, error) {
	if j == nil {
		return nil, fmt.Errorf("engine: nil plan")
	}
	switch j.Kind {
	case "scan":
		out := &ScanPlan{
			Table:       j.Table,
			Projection:  j.Projection,
			TableSchema: decodeSchema(j.Schema),
		}
		f, err := decodeExpr(j.Filter)
		if err != nil {
			return nil, err
		}
		// A scan's prune predicates are its filter's, as pushDownFilters
		// derives them: the exact integer bounds the planner pruned with.
		out.Filter, out.Prune = f, ExtractPrunePredicates(f, out.TableSchema)
		return out, nil
	case "filter":
		in, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		pred, err := decodeExpr(j.Pred)
		if err != nil {
			return nil, err
		}
		return &FilterPlan{In: in, Pred: pred}, nil
	case "project":
		in, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		out := &ProjectPlan{In: in, Names: j.Names}
		for _, ej := range j.Exprs {
			e, err := decodeExpr(ej)
			if err != nil {
				return nil, err
			}
			out.Exprs = append(out.Exprs, e)
		}
		return out, nil
	case "agg":
		in, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		out := &AggregatePlan{In: in, GroupBy: j.GroupBy}
		for _, aj := range j.Aggs {
			a := AggSpec{Func: AggFunc(aj.Func), Name: aj.Name}
			if aj.Arg != nil {
				e, err := decodeExpr(aj.Arg)
				if err != nil {
					return nil, err
				}
				a.Arg = e
			}
			out.Aggs = append(out.Aggs, a)
		}
		return out, nil
	case "orderby":
		in, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		return &OrderByPlan{In: in, Keys: j.Keys}, nil
	case "limit":
		in, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		if j.N < 0 {
			return nil, fmt.Errorf("engine: negative limit %d", j.N)
		}
		return &LimitPlan{In: in, N: j.N}, nil
	case "join":
		left, err := decodePlanNode(j.In)
		if err != nil {
			return nil, err
		}
		right, err := decodePlanNode(j.Right)
		if err != nil {
			return nil, err
		}
		return &JoinPlan{
			Left: left, Right: right,
			LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		}, nil
	default:
		return nil, fmt.Errorf("engine: unknown plan kind %q", j.Kind)
	}
}

// MarshalPlan serializes a plan to JSON.
func MarshalPlan(p Plan) ([]byte, error) {
	j, err := encodePlanNode(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// UnmarshalPlan reconstructs a plan from MarshalPlan output.
func UnmarshalPlan(data []byte) (Plan, error) {
	var j planJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	return decodePlanNode(&j)
}
