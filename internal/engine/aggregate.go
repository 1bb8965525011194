package engine

import (
	"fmt"
	"math"

	"lambada/internal/columnar"
)

// aggBuilder accumulates group-by state over chunks in struct-of-arrays
// form: groups are dense ordinals into per-aggregate value arrays, and each
// chunk is folded in two vectorized passes — first rows are mapped to group
// ordinals (selection-vector style), then every aggregate runs a tight
// per-column loop over that mapping. No per-row allocation anywhere.
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
	p      *AggregatePlan
	keyIdx []int
	keys   columnar.KeyTable // group keys → group ordinals, first-seen order

	// Per-group state, ordinal-indexed.
	counts []int64 // per group; every aggregate shares the row count
	// Per aggregate, per group.
	sums  [][]float64
	isums [][]int64
	mins  [][]float64
	maxs  [][]float64

	cols      [][]int64 // reusable per-chunk key columns, BOOLEAN ones widened
	args      []argView // reusable per-chunk argument views
	rowGroups []int32   // reusable row → group-ordinal mapping
}

// argView is one aggregate argument's typed value slices, extracted once
// per chunk so the per-row loops read values directly, and the vector they
// view.
type argView struct {
	f  []float64
	i  []int64
	bl []bool
	v  *columnar.Vector
}

// newAggBuilder validates the plan against the input schema and returns an
// empty builder.
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
		p:      p,
		keyIdx: keyIdx,
		sums:   make([][]float64, len(p.Aggs)),
		isums:  make([][]int64, len(p.Aggs)),
		mins:   make([][]float64, len(p.Aggs)),
		maxs:   make([][]float64, len(p.Aggs)),
		cols:   make([][]int64, len(keyIdx)),
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
	for ai := range b.p.Aggs {
		b.sums[ai], b.isums[ai] = b.sums[ai][:0], b.isums[ai][:0]
		b.mins[ai], b.maxs[ai] = b.mins[ai][:0], b.maxs[ai][:0]
	}
	b.keys.Reset(len(b.keyIdx))
}

// addGroup appends a new group. Groups are added as the key table numbers
// them, so ordinals are first-seen order. Min/max start at the infinities;
// every group has at least one row, so they collapse to the true extrema in
// the aggregate pass.
func (b *aggBuilder) addGroup() {
	b.counts = append(b.counts, 0)
	for ai := range b.p.Aggs {
		b.sums[ai] = append(b.sums[ai], 0)
		b.isums[ai] = append(b.isums[ai], 0)
		b.mins[ai] = append(b.mins[ai], math.Inf(1))
		b.maxs[ai] = append(b.maxs[ai], math.Inf(-1))
	}
}

// addChunk folds one chunk into the builder, evaluating the aggregates'
// arguments through pool and handing them back to it once folded.
func (b *aggBuilder) addChunk(c *columnar.Chunk, pool *columnar.Pool) error {
	n := c.NumRows()
	if n == 0 {
		return nil
	}
	// Evaluate aggregate arguments once per chunk (vectorized) and pull
	// out their typed slices.
	args := b.args[:0]
	for _, a := range b.p.Aggs {
		var view argView
		if a.Arg != nil {
			v, err := a.Arg.Eval(c, pool)
			if err != nil {
				return err
			}
			view.v = v
			switch v.Type {
			case columnar.Float64:
				view.f = v.Float64s
			case columnar.Int64:
				view.i = v.Int64s
			default:
				view.bl = v.Bools
			}
		}
		args = append(args, view)
	}
	b.args = args

	// Pass 1: map every row to its group ordinal.
	if cap(b.rowGroups) < n {
		b.rowGroups = make([]int32, n)
	}
	rg := b.rowGroups[:n]
	b.mapRows(c, rg)

	// Pass 2: one tight loop per aggregate over the row → group mapping.
	counts := b.counts
	for _, g := range rg {
		counts[g]++
	}
	for ai := range args {
		av := &args[ai]
		sums, isums := b.sums[ai], b.isums[ai]
		mins, maxs := b.mins[ai], b.maxs[ai]
		switch {
		case av.f != nil:
			for i, g := range rg {
				v := av.f[i]
				sums[g] += v
				isums[g] += int64(v)
				if v < mins[g] {
					mins[g] = v
				}
				if v > maxs[g] {
					maxs[g] = v
				}
			}
		case av.i != nil:
			for i, g := range rg {
				x := av.i[i]
				v := float64(x)
				sums[g] += v
				isums[g] += x
				if v < mins[g] {
					mins[g] = v
				}
				if v > maxs[g] {
					maxs[g] = v
				}
			}
		case av.bl != nil:
			for i, g := range rg {
				var v float64
				if av.bl[i] {
					v = 1
					isums[g]++
				}
				sums[g] += v
				if v < mins[g] {
					mins[g] = v
				}
				if v > maxs[g] {
					maxs[g] = v
				}
			}
		default:
			// COUNT(*): no argument; zeros still bound min/max like the
			// row-at-a-time executor did.
			for _, g := range rg {
				if 0 < mins[g] {
					mins[g] = 0
				}
				if 0 > maxs[g] {
					maxs[g] = 0
				}
			}
		}
	}
	for ai, a := range b.p.Aggs {
		if a.Arg != nil {
			release(pool, a.Arg, args[ai].v)
		}
	}
	return nil
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
	for b.numGroups() < b.keys.Len() {
		b.addGroup()
	}
}

// mergeFrom folds another builder's partial groups into b, in o's
// first-seen order. Both builders must come from the same plan; o's groups
// are left as they were. Callers fold partials in arrival order, so float
// sums combine in the same order on every run.
func (b *aggBuilder) mergeFrom(o *aggBuilder) {
	nk := len(b.keyIdx)
	okeys := o.keys.Keys()
	for og := 0; og < o.numGroups(); og++ {
		g, added := b.keys.Insert(okeys[og*nk : (og+1)*nk])
		if added {
			b.addGroup()
		}
		b.counts[g] += o.counts[og]
		for ai := range b.p.Aggs {
			b.sums[ai][g] += o.sums[ai][og]
			b.isums[ai][g] += o.isums[ai][og]
			if o.mins[ai][og] < b.mins[ai][g] {
				b.mins[ai][g] = o.mins[ai][og]
			}
			if o.maxs[ai][og] > b.maxs[ai][g] {
				b.maxs[ai][g] = o.maxs[ai][og]
			}
		}
	}
}

// finalize emits the result chunk, groups in ordinal (first-seen) order.
func (b *aggBuilder) finalize(outSchema *columnar.Schema) (*columnar.Chunk, error) {
	// A global aggregate over empty input still yields one row of zeros
	// (COUNT = 0), matching SQL semantics.
	if len(b.p.GroupBy) == 0 && b.numGroups() == 0 {
		b.addGroup()
		for ai := range b.p.Aggs {
			b.mins[ai][0] = 0
			b.maxs[ai][0] = 0
		}
	}

	nk := len(b.p.GroupBy)
	keys := b.keys.Keys()
	out := columnar.NewChunk(outSchema, b.numGroups())
	for g := 0; g < b.numGroups(); g++ {
		col := 0
		for j := 0; j < nk; j++ {
			if k := keys[g*nk+j]; out.Columns[col].Type == columnar.Bool {
				out.Columns[col].AppendBool(k != 0)
			} else {
				out.Columns[col].AppendInt64(k)
			}
			col++
		}
		for ai, a := range b.p.Aggs {
			switch a.Func {
			case AggCount:
				out.Columns[col].AppendInt64(b.counts[g])
			case AggSum:
				if outSchema.Fields[col].Type == columnar.Int64 {
					out.Columns[col].AppendInt64(b.isums[ai][g])
				} else {
					out.Columns[col].AppendFloat64(b.sums[ai][g])
				}
			case AggAvg:
				if b.counts[g] == 0 {
					out.Columns[col].AppendFloat64(math.NaN())
				} else {
					out.Columns[col].AppendFloat64(b.sums[ai][g] / float64(b.counts[g]))
				}
			case AggMin:
				if outSchema.Fields[col].Type == columnar.Int64 {
					out.Columns[col].AppendInt64(int64(b.mins[ai][g]))
				} else {
					out.Columns[col].AppendFloat64(b.mins[ai][g])
				}
			case AggMax:
				if outSchema.Fields[col].Type == columnar.Int64 {
					out.Columns[col].AppendInt64(int64(b.maxs[ai][g]))
				} else {
					out.Columns[col].AppendFloat64(b.maxs[ai][g])
				}
			}
			col++
		}
	}
	return out, nil
}
