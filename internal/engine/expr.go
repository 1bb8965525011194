// Package engine implements Lambada's query processing framework (§3.2):
// a plan intermediate representation shared by all frontends, a common set
// of optimizations (selection and projection push-down, data-parallel plan
// splitting into driver and worker scopes), and vectorized execution over
// columnar chunks.
//
// Where the paper lowers pipelines to LLVM IR and JIT-compiles them, this
// implementation fuses operators into pipelines of Go closures over column
// vectors — the same architectural property (no per-tuple interpretation,
// materialization only at pipeline breakers) expressed in idiomatic Go.
//
// One executor runs those pipelines, Execute, one morsel at a time on the
// caller's goroutine: scan chunks flow through the fused stages to a
// breaker, and the aggregation breaker folds a per-chunk hash table into
// its master table in arrival order. Transient buffers go back to a
// columnar.Pool (see the ownership contract there): an expression hands
// each temporary back once its parent has consumed it, and the aggregation
// breaker recycles a morsel's gathered chunks and argument vectors after it
// has folded the morsel.
package engine

import (
	"fmt"
	"slices"
	"strings"

	"lambada/internal/columnar"
)

// Expr is a vectorized expression over a chunk.
type Expr interface {
	// Type returns the result type under the given input schema.
	Type(schema *columnar.Schema) (columnar.Type, error)
	// Eval evaluates the expression over all rows of the chunk. Its
	// temporaries come from pool and go back to it once their parent has
	// read them. The result comes from pool too, unless it is a Col's
	// shared vector; the caller owns it and hands it back once read (see
	// release). A nil pool allocates.
	Eval(c *columnar.Chunk, pool *columnar.Pool) (*columnar.Vector, error)
	// Columns appends the referenced column names to dst.
	Columns(dst []string) []string
	// String renders the expression SQL-ishly.
	String() string
}

// Col references an input column by name.
type Col string

// Type returns the column's declared type.
func (e Col) Type(s *columnar.Schema) (columnar.Type, error) {
	i := s.Index(string(e))
	if i < 0 {
		return 0, fmt.Errorf("engine: unknown column %q", string(e))
	}
	return s.Fields[i].Type, nil
}

// Eval returns the column vector (shared, not copied: never recycled).
func (e Col) Eval(c *columnar.Chunk, _ *columnar.Pool) (*columnar.Vector, error) {
	v := c.Column(string(e))
	if v == nil {
		return nil, fmt.Errorf("engine: unknown column %q", string(e))
	}
	return v, nil
}

// Columns appends the column name.
func (e Col) Columns(dst []string) []string { return append(dst, string(e)) }

// String returns the column name.
func (e Col) String() string { return string(e) }

// ConstInt is an int64 literal.
type ConstInt int64

// Type returns Int64.
func (e ConstInt) Type(*columnar.Schema) (columnar.Type, error) { return columnar.Int64, nil }

// Eval broadcasts the literal.
func (e ConstInt) Eval(c *columnar.Chunk, pool *columnar.Pool) (*columnar.Vector, error) {
	v := result(pool, columnar.Int64, c.NumRows())
	for i := range v.Int64s {
		v.Int64s[i] = int64(e)
	}
	return v, nil
}

// Columns is a no-op.
func (e ConstInt) Columns(dst []string) []string { return dst }

// String renders the literal.
func (e ConstInt) String() string { return fmt.Sprintf("%d", int64(e)) }

// ConstFloat is a float64 literal.
type ConstFloat float64

// Type returns Float64.
func (e ConstFloat) Type(*columnar.Schema) (columnar.Type, error) { return columnar.Float64, nil }

// Eval broadcasts the literal.
func (e ConstFloat) Eval(c *columnar.Chunk, pool *columnar.Pool) (*columnar.Vector, error) {
	v := result(pool, columnar.Float64, c.NumRows())
	for i := range v.Float64s {
		v.Float64s[i] = float64(e)
	}
	return v, nil
}

// Columns is a no-op.
func (e ConstFloat) Columns(dst []string) []string { return dst }

// String renders the literal.
func (e ConstFloat) String() string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", float64(e)), "0"), ".")
}

// BinOp is a binary operator kind.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	OpEQ: "=", OpNE: "<>", OpAnd: "AND", OpOr: "OR",
}

// IsComparison reports whether the operator yields Bool from numerics.
func (op BinOp) IsComparison() bool { return op >= OpLT && op <= OpNE }

// IsLogical reports whether the operator combines Bools.
func (op BinOp) IsLogical() bool { return op == OpAnd || op == OpOr }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// NewBin builds a binary expression.
func NewBin(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Type computes the result type with numeric promotion.
func (e *Bin) Type(s *columnar.Schema) (columnar.Type, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return 0, err
	}
	switch {
	case e.Op.IsLogical():
		if lt != columnar.Bool || rt != columnar.Bool {
			return 0, fmt.Errorf("engine: %s requires booleans, got %v and %v", binOpNames[e.Op], lt, rt)
		}
		return columnar.Bool, nil
	case e.Op.IsComparison():
		if lt == columnar.Bool || rt == columnar.Bool {
			if lt != rt {
				return 0, fmt.Errorf("engine: cannot compare %v with %v", lt, rt)
			}
		}
		return columnar.Bool, nil
	default:
		if lt == columnar.Bool || rt == columnar.Bool {
			return 0, fmt.Errorf("engine: arithmetic on boolean")
		}
		if lt == columnar.Float64 || rt == columnar.Float64 || e.Op == OpDiv {
			return columnar.Float64, nil
		}
		return columnar.Int64, nil
	}
}

// result returns a vector of type t holding n values, for an expression to
// write by index: a recycled one from pool when it has one.
func result(pool *columnar.Pool, t columnar.Type, n int) *columnar.Vector {
	v := pool.GetVector(t, n)
	switch t {
	case columnar.Int64:
		v.Int64s = slices.Grow(v.Int64s, n)[:n]
	case columnar.Float64:
		v.Float64s = slices.Grow(v.Float64s, n)[:n]
	default:
		v.Bools = slices.Grow(v.Bools, n)[:n]
	}
	return v
}

// release hands v, what e evaluated to, back to pool once its reader is done
// with it: every result is owned but a Col's, which is the chunk's vector.
func release(pool *columnar.Pool, e Expr, v *columnar.Vector) {
	if _, shared := e.(Col); !shared {
		pool.PutVector(v)
	}
}

// constSide extracts a literal operand, if any.
func constSide(e Expr) (f float64, i int64, isInt, ok bool) {
	switch v := e.(type) {
	case ConstInt:
		return float64(v), int64(v), true, true
	case ConstFloat:
		return float64(v), int64(v), false, true
	}
	return 0, 0, false, false
}

// Eval evaluates both sides and applies the operator element-wise. When one
// side is a literal, the scalar is folded into the loop instead of being
// broadcast into a throwaway vector — comparisons against constants and
// expressions like (1 - x) are the engine's hottest filter/projection work.
func (e *Bin) Eval(c *columnar.Chunk, pool *columnar.Pool) (*columnar.Vector, error) {
	if !e.Op.IsLogical() {
		lf, li, lIsInt, lConst := constSide(e.L)
		rf, ri, rIsInt, rConst := constSide(e.R)
		if lConst != rConst { // exactly one literal side
			side, cf, ci, cIsInt := e.L, rf, ri, rIsInt
			if lConst {
				side, cf, ci, cIsInt = e.R, lf, li, lIsInt
			}
			vec, err := side.Eval(c, pool)
			if err != nil {
				return nil, err
			}
			out, err := e.evalScalar(c, vec, lConst, cf, ci, cIsInt, pool)
			release(pool, side, vec)
			return out, err
		}
	}
	lv, err := e.L.Eval(c, pool)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(c, pool)
	if err != nil {
		return nil, err
	}
	n := lv.Len()
	if rv.Len() != n {
		return nil, fmt.Errorf("engine: length mismatch %d vs %d", n, rv.Len())
	}
	rt, err := e.Type(c.Schema)
	if err != nil {
		return nil, err
	}
	// Each arm bulk-writes the preallocated output by index: no per-value
	// append bookkeeping in these hot loops.
	out := result(pool, rt, n)
	switch {
	case e.Op.IsLogical():
		if e.Op == OpAnd {
			for i := range out.Bools {
				out.Bools[i] = lv.Bools[i] && rv.Bools[i]
			}
		} else {
			for i := range out.Bools {
				out.Bools[i] = lv.Bools[i] || rv.Bools[i]
			}
		}
	case e.Op.IsComparison():
		if lv.Type == columnar.Int64 && rv.Type == columnar.Int64 {
			for i := range out.Bools {
				out.Bools[i] = cmpInt(e.Op, lv.Int64s[i], rv.Int64s[i])
			}
		} else if lv.Type == columnar.Bool {
			for i := range out.Bools {
				out.Bools[i] = cmpInt(e.Op, lv.Int64At(i), rv.Int64At(i))
			}
		} else {
			for i := range out.Bools {
				out.Bools[i] = cmpFloat(e.Op, lv.Float64At(i), rv.Float64At(i))
			}
		}
	default:
		if rt == columnar.Int64 {
			for i := range out.Int64s {
				out.Int64s[i] = arithInt(e.Op, lv.Int64s[i], rv.Int64s[i])
			}
		} else {
			if lv.Type == columnar.Float64 && rv.Type == columnar.Float64 {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, lv.Float64s[i], rv.Float64s[i])
				}
			} else {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, lv.Float64At(i), rv.Float64At(i))
				}
			}
		}
	}
	release(pool, e.L, lv)
	release(pool, e.R, rv)
	return out, nil
}

// evalScalar applies the operator between a vector and a literal scalar
// (scalarOnLeft tells which operand the literal was), writing the output by
// index with no broadcast vector for the literal.
func (e *Bin) evalScalar(c *columnar.Chunk, vec *columnar.Vector, scalarOnLeft bool, cf float64, ci int64, cIsInt bool, pool *columnar.Pool) (*columnar.Vector, error) {
	rt, err := e.Type(c.Schema) // also validates operand types
	if err != nil {
		return nil, err
	}
	out := result(pool, rt, vec.Len())
	switch {
	case e.Op.IsComparison():
		switch {
		case vec.Type == columnar.Int64 && cIsInt:
			if scalarOnLeft {
				for i := range out.Bools {
					out.Bools[i] = cmpInt(e.Op, ci, vec.Int64s[i])
				}
			} else {
				for i := range out.Bools {
					out.Bools[i] = cmpInt(e.Op, vec.Int64s[i], ci)
				}
			}
		case vec.Type == columnar.Float64:
			if scalarOnLeft {
				for i := range out.Bools {
					out.Bools[i] = cmpFloat(e.Op, cf, vec.Float64s[i])
				}
			} else {
				for i := range out.Bools {
					out.Bools[i] = cmpFloat(e.Op, vec.Float64s[i], cf)
				}
			}
		default:
			if scalarOnLeft {
				for i := range out.Bools {
					out.Bools[i] = cmpFloat(e.Op, cf, vec.Float64At(i))
				}
			} else {
				for i := range out.Bools {
					out.Bools[i] = cmpFloat(e.Op, vec.Float64At(i), cf)
				}
			}
		}
	case rt == columnar.Int64:
		if scalarOnLeft {
			for i := range out.Int64s {
				out.Int64s[i] = arithInt(e.Op, ci, vec.Int64s[i])
			}
		} else {
			for i := range out.Int64s {
				out.Int64s[i] = arithInt(e.Op, vec.Int64s[i], ci)
			}
		}
	default:
		if vec.Type == columnar.Float64 {
			if scalarOnLeft {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, cf, vec.Float64s[i])
				}
			} else {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, vec.Float64s[i], cf)
				}
			}
		} else {
			if scalarOnLeft {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, cf, vec.Float64At(i))
				}
			} else {
				for i := range out.Float64s {
					out.Float64s[i] = arithFloat(e.Op, vec.Float64At(i), cf)
				}
			}
		}
	}
	return out, nil
}

func cmpInt(op BinOp, a, b int64) bool {
	switch op {
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpEQ:
		return a == b
	default:
		return a != b
	}
}

func cmpFloat(op BinOp, a, b float64) bool {
	switch op {
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpEQ:
		return a == b
	default:
		return a != b
	}
}

func arithInt(op BinOp, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	default:
		if b == 0 {
			return 0
		}
		return a / b
	}
}

func arithFloat(op BinOp, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	default:
		return a / b
	}
}

// Columns appends both sides' references.
func (e *Bin) Columns(dst []string) []string { return e.R.Columns(e.L.Columns(dst)) }

// String renders infix.
func (e *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), binOpNames[e.Op], e.R.String())
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Type returns Bool (the operand must be Bool).
func (e *Not) Type(s *columnar.Schema) (columnar.Type, error) {
	t, err := e.E.Type(s)
	if err != nil {
		return 0, err
	}
	if t != columnar.Bool {
		return 0, fmt.Errorf("engine: NOT on %v", t)
	}
	return columnar.Bool, nil
}

// Eval negates element-wise.
func (e *Not) Eval(c *columnar.Chunk, pool *columnar.Pool) (*columnar.Vector, error) {
	v, err := e.E.Eval(c, pool)
	if err != nil {
		return nil, err
	}
	out := result(pool, columnar.Bool, v.Len())
	for i, b := range v.Bools {
		out.Bools[i] = !b
	}
	release(pool, e.E, v)
	return out, nil
}

// Columns appends the operand's references.
func (e *Not) Columns(dst []string) []string { return e.E.Columns(dst) }

// String renders prefix NOT.
func (e *Not) String() string { return "NOT " + e.E.String() }

// Between builds lo <= col AND col <= hi.
func Between(e Expr, lo, hi Expr) Expr {
	return NewBin(OpAnd, NewBin(OpGE, e, lo), NewBin(OpLE, e, hi))
}

// And folds conjuncts into a single expression (nil for empty input).
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewBin(OpAnd, out, e)
		}
	}
	return out
}

// SplitConjuncts flattens nested ANDs into a list.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}
