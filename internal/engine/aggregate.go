package engine

import (
	"errors"
	"fmt"
	"math"

	"lambada/internal/columnar"
)

// aggBuilder accumulates group-by state over chunks in struct-of-arrays
// form: groups are dense ordinals into per-group state, and each chunk is
// folded in two vectorized passes — first rows are mapped to group
// ordinals (selection-vector style), then every aggregate but COUNT
// evaluates its argument once and runs one tight loop over that mapping,
// writing its one state slice. No per-row allocation anywhere.
//
// Every group has a row count, which COUNT reads. Beside it each other
// aggregate keeps one accumulator, in its argument's type: a BIGINT SUM, MIN
// or MAX folds into an []int64, so it is exact (a SUM out of range fails with
// ErrSumOverflow), and a DOUBLE one into a []float64. AVG is not here: it is
// SplitAggregate's SUM ÷ COUNT, on a single node too (splitLocal).
//
// The aggregate sink computes a partial builder per morsel — one builder,
// reset between morsels — and folds the partials into a master builder in
// arrival order (mergeFrom), so float sums — the only non-associative
// aggregate — combine in the same order on every run.
//
// Group keys are numbered by a columnar.KeyTable, which also holds them:
// a morsel whose keys span a narrow range is indexed directly, any other is
// hashed.
type aggBuilder struct {
	keyIdx []int
	aggs   []AggSpec         // the plan's, which errors name
	keys   columnar.KeyTable // group keys → group ordinals, first-seen order
	counts []int64           // rows per group, ordinal-indexed
	accs   []accumulator     // one per aggregate

	cols [][]int64 // reusable per-chunk key columns, BOOLEAN ones widened
	to   []int32   // reusable mapping into the groups: a chunk's rows, or a merged partial's groups
}

// accumulator is one aggregate's per-group state, ordinal-indexed: ints for
// a BIGINT SUM, MIN or MAX, floats for a DOUBLE one, neither for COUNT.
type accumulator struct {
	fn     AggFunc
	arg    Expr // nil for COUNT, which reads the builder's counts
	exact  bool // the state is ints
	ints   []int64
	floats []float64
}

// ErrSumOverflow is reported when a BIGINT SUM leaves int64's range: the
// aggregate fails rather than return a wrapped total.
var ErrSumOverflow = errors.New("engine: BIGINT SUM overflows")

// overflow is aggregate i's ErrSumOverflow, naming the user's output column
// whether i is the user's SUM, a partial or a merge of one.
func (b *aggBuilder) overflow(i int) error {
	return fmt.Errorf("%w in column %s", ErrSumOverflow, userName(b.aggs[i].Name))
}

// newAggBuilder validates the plan against the input schema and returns an
// empty builder. It refuses AVG, which runs as SplitAggregate's SUM ÷ COUNT.
func newAggBuilder(p *AggregatePlan, inSchema *columnar.Schema) (*aggBuilder, error) {
	keyIdx := make([]int, len(p.GroupBy))
	for i, g := range p.GroupBy {
		keyIdx[i] = inSchema.Index(g)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("engine: group key %q missing", g)
		}
		if t := inSchema.Fields[keyIdx[i]].Type; t == columnar.Float64 {
			return nil, fmt.Errorf("engine: float group key %q not supported", g)
		}
	}
	b := &aggBuilder{
		keyIdx: keyIdx,
		aggs:   p.Aggs,
		accs:   make([]accumulator, len(p.Aggs)),
		cols:   make([][]int64, len(keyIdx)),
	}
	for i, a := range p.Aggs {
		if a.Func > AggMax || a.Func == AggAvg || a.Func != AggCount && a.Arg == nil {
			return nil, fmt.Errorf("engine: bad aggregate %s", a)
		}
		b.accs[i].fn = a.Func
		if a.Arg == nil {
			continue
		}
		t, err := a.Arg.Type(inSchema)
		if err != nil {
			return nil, err
		}
		if a.Func != AggCount {
			b.accs[i].arg, b.accs[i].exact = a.Arg, t == columnar.Int64
		}
	}
	b.keys.Reset(len(keyIdx))
	return b, nil
}

func (b *aggBuilder) numGroups() int { return len(b.counts) }

// reset empties the builder for the next morsel, keeping what it allocated:
// afterwards it has no group, as a fresh builder, so its key table may index
// the next morsel directly again.
func (b *aggBuilder) reset() {
	b.counts = b.counts[:0]
	for i := range b.accs {
		a := &b.accs[i]
		a.ints, a.floats = a.ints[:0], a.floats[:0]
	}
	b.keys.Reset(len(b.keyIdx))
}

// grow extends every state to n groups. Groups are added as the key table
// numbers them, so ordinals are first-seen order.
func (b *aggBuilder) grow(n int) {
	b.counts = extend(b.counts, n, AggCount, 0, 0)
	for i := range b.accs {
		a := &b.accs[i]
		switch {
		case a.arg == nil:
		case a.exact:
			a.ints = extend(a.ints, n, a.fn, math.MaxInt64, math.MinInt64)
		default:
			a.floats = extend(a.floats, n, a.fn, math.Inf(1), math.Inf(-1))
		}
	}
}

// extend appends to s until it holds n groups, each new one at fn's start:
// top for MIN and bottom for MAX, which the group's first value replaces,
// and 0 for a sum or a count.
func extend[T int64 | float64](s []T, n int, fn AggFunc, top, bottom T) []T {
	var v T
	switch fn {
	case AggMin:
		v = top
	case AggMax:
		v = bottom
	}
	for len(s) < n {
		s = append(s, v)
	}
	return s
}

// addChunk folds one chunk into the builder, evaluating the aggregates'
// arguments through pool and handing each back to it once folded.
func (b *aggBuilder) addChunk(c *columnar.Chunk, pool *columnar.Pool) error {
	n := c.NumRows()
	if n == 0 {
		return nil
	}
	// Pass 1: map every row to its group ordinal.
	if cap(b.to) < n {
		b.to = make([]int32, n)
	}
	rg := b.to[:n]
	b.mapRows(c, rg)

	// Pass 2: one tight loop per aggregate over the row → group mapping.
	counts := b.counts
	for _, g := range rg {
		counts[g]++
	}
	for ai := range b.accs {
		a := &b.accs[ai]
		if a.arg == nil {
			continue
		}
		v, err := a.arg.Eval(c, pool)
		if err != nil {
			return err
		}
		ok := a.add(v.Int64s, v.Float64s, rg)
		release(pool, a.arg, v)
		if !ok {
			return b.overflow(ai)
		}
	}
	return nil
}

// add folds the values of the type a keeps — ints or floats, the other
// ignored — into a's state, value i into group to[i], and reports whether a
// BIGINT SUM stayed in int64's range.
func (a *accumulator) add(ints []int64, floats []float64, to []int32) bool {
	if !a.exact {
		fold(a.fn, a.floats, floats, to)
		return true
	}
	if a.fn != AggSum {
		fold(a.fn, a.ints, ints, to)
		return true
	}
	s := a.ints
	to = to[:len(ints)]
	var wrapped int64
	for i, x := range ints {
		g := to[i]
		sum := s[g] + x
		wrapped |= (s[g] ^ sum) & (x ^ sum) // negative: the sum's sign is neither addend's
		s[g] = sum
	}
	return wrapped >= 0
}

// fold folds the values xs into the state s by fn, xs[i] into s[to[i]]: a
// chunk's argument values through its row → group mapping, or a partial
// builder's state through its group → group mapping. A BIGINT SUM folds in
// accumulator.add, which checks its range.
func fold[T int64 | float64](fn AggFunc, s, xs []T, to []int32) {
	to = to[:len(xs)]
	switch fn {
	case AggMin:
		for i, x := range xs {
			if x < s[to[i]] {
				s[to[i]] = x
			}
		}
	case AggMax:
		for i, x := range xs {
			if x > s[to[i]] {
				s[to[i]] = x
			}
		}
	default: // a sum, a count
		for i, x := range xs {
			s[to[i]] += x
		}
	}
}

// mapRows fills rg with each row's group ordinal, creating groups on first
// sight. A BOOLEAN key is numbered as 0 or 1.
func (b *aggBuilder) mapRows(c *columnar.Chunk, rg []int32) {
	for j, ki := range b.keyIdx {
		v := c.Columns[ki]
		if v.Type != columnar.Bool {
			b.cols[j] = v.Int64s
			continue
		}
		wide := b.cols[j][:0] // a BOOLEAN key's column is always the builder's own
		for i := range v.Bools {
			wide = append(wide, v.Int64At(i))
		}
		b.cols[j] = wide
	}
	b.keys.Number(b.cols, rg)
	b.grow(b.keys.Len())
}

// mergeFrom folds another builder's partial groups into b, in o's
// first-seen order. Both builders must come from the same plan; o's groups
// are left as they were. Callers fold partials in arrival order, so float
// sums combine in the same order on every run.
func (b *aggBuilder) mergeFrom(o *aggBuilder) error {
	nk := len(b.keyIdx)
	okeys := o.keys.Keys()
	to := b.to[:0]
	for og := range o.numGroups() {
		g, _ := b.keys.Insert(okeys[og*nk : (og+1)*nk])
		to = append(to, g)
	}
	b.to = to
	b.grow(b.keys.Len())
	fold(AggCount, b.counts, o.counts, to)
	for i := range b.accs {
		a, oa := &b.accs[i], &o.accs[i]
		if !a.add(oa.ints, oa.floats, to) {
			return b.overflow(i)
		}
	}
	return nil
}

// finalize emits the result chunk, groups in ordinal (first-seen) order,
// each output column written in one pass.
func (b *aggBuilder) finalize(outSchema *columnar.Schema) (*columnar.Chunk, error) {
	// A global aggregate over empty input still yields one row of zeros
	// (COUNT = 0), matching SQL semantics.
	if len(b.keyIdx) == 0 && b.numGroups() == 0 {
		b.grow(1)
		for i := range b.accs {
			clear(b.accs[i].ints)
			clear(b.accs[i].floats)
		}
	}

	n, nk := b.numGroups(), len(b.keyIdx)
	keys := b.keys.Keys()
	out := columnar.NewChunk(outSchema, n)
	for j, col := range out.Columns[:nk] {
		for g := range n {
			if k := keys[g*nk+j]; col.Type == columnar.Bool {
				col.Bools = append(col.Bools, k != 0)
			} else {
				col.Int64s = append(col.Int64s, k)
			}
		}
	}
	for i, a := range b.accs {
		col := out.Columns[nk+i]
		if a.fn == AggCount {
			col.Int64s = append(col.Int64s, b.counts...)
		} else { // the state kept, the other one being empty
			col.Int64s = append(col.Int64s, a.ints...)
			col.Float64s = append(col.Float64s, a.floats...)
		}
	}
	return out, nil
}
