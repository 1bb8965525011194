package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"lambada/internal/columnar"
)

// aggBuilder accumulates group-by state over chunks in struct-of-arrays
// form: groups are dense ordinals into per-aggregate value arrays, and each
// chunk is folded in two vectorized passes — first rows are mapped to group
// ordinals (selection-vector style), then every aggregate runs a tight
// per-column loop over that mapping. No per-row hashing on the common
// paths, no per-row allocation anywhere.
//
// The aggregate sink computes a partial builder per morsel — one builder,
// reset between morsels — and folds the partials into a master builder in
// arrival order (mergeFrom), so float sums — the only non-associative
// aggregate — combine in the same order on every run.
//
// Group addressing picks the cheapest workable scheme per chunk: a dense
// direct-index table when the int64 key columns span a narrow range, a
// map[int64] for a single wide key (no per-row key serialization, no string
// allocation), and an encoded-string map only for the general multi-key
// fallback.
type aggBuilder struct {
	p      *AggregatePlan
	keyIdx []int
	fast   bool // single key, addressed as int64

	fgroups map[int64]int32  // fast path: key → group ordinal
	groups  map[string]int32 // general path: encoded keys → group ordinal

	// Per-group state, ordinal-indexed.
	keyVals []int64 // group keys, flat, stride len(keyIdx)
	counts  []int64 // per group; every aggregate shares the row count
	// Per aggregate, per group.
	sums  [][]float64
	isums [][]int64
	mins  [][]float64
	maxs  [][]float64

	keyBuf    []byte    // reusable composite-key scratch
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
		fast:   len(keyIdx) == 1,
		sums:   make([][]float64, len(p.Aggs)),
		isums:  make([][]int64, len(p.Aggs)),
		mins:   make([][]float64, len(p.Aggs)),
		maxs:   make([][]float64, len(p.Aggs)),
	}
	if b.fast {
		b.fgroups = make(map[int64]int32)
	} else if len(keyIdx) > 1 {
		b.groups = make(map[string]int32)
	}
	return b, nil
}

func (b *aggBuilder) numGroups() int { return len(b.counts) }

// reset empties the builder for the next morsel, keeping what it allocated:
// afterwards it has no group, as a fresh builder, so mapRows may take the
// dense path again.
func (b *aggBuilder) reset() {
	b.keyVals, b.counts = b.keyVals[:0], b.counts[:0]
	for ai := range b.p.Aggs {
		b.sums[ai], b.isums[ai] = b.sums[ai][:0], b.isums[ai][:0]
		b.mins[ai], b.maxs[ai] = b.mins[ai][:0], b.maxs[ai][:0]
	}
	clear(b.fgroups)
	clear(b.groups)
}

// addGroup appends a new group and returns its ordinal. Every caller adds
// groups on first sight, so ordinals are first-seen order. Min/max start at
// the infinities; every group has at least one row, so they collapse to the
// true extrema in the aggregate pass.
func (b *aggBuilder) addGroup() int32 {
	g := int32(len(b.counts))
	b.counts = append(b.counts, 0)
	for ai := range b.p.Aggs {
		b.sums[ai] = append(b.sums[ai], 0)
		b.isums[ai] = append(b.isums[ai], 0)
		b.mins[ai] = append(b.mins[ai], math.Inf(1))
		b.maxs[ai] = append(b.maxs[ai], math.Inf(-1))
	}
	return g
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
	b.mapRows(c, n, rg)

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
// sight.
func (b *aggBuilder) mapRows(c *columnar.Chunk, n int, rg []int32) {
	// Global aggregate: every row lands in group 0.
	if len(b.keyIdx) == 0 {
		if b.numGroups() == 0 {
			b.addGroup()
		}
		for i := range rg {
			rg[i] = 0
		}
		return
	}

	// Dense path: a fresh or reset builder (one chunk per builder is the
	// normal contract) whose int64 key columns together span a narrow range
	// gets a direct-index table — no key serialization, no hashing. Slots hold
	// ordinal+1 so the zeroed table needs no initialization.
	if b.numGroups() == 0 {
		if dense, los, strides, ok := b.denseTable(c, n); ok {
			if b.fast {
				keys := c.Columns[b.keyIdx[0]].Int64s
				lo := los[0]
				for i, k := range keys {
					slot := k - lo
					g := dense[slot]
					if g == 0 {
						g = b.addGroup() + 1
						b.keyVals = append(b.keyVals, k)
						b.fgroups[k] = g - 1
						dense[slot] = g
					}
					rg[i] = g - 1
				}
				return
			}
			for i := 0; i < n; i++ {
				slot := int64(0)
				for j, ki := range b.keyIdx {
					slot += (c.Columns[ki].Int64s[i] - los[j]) * strides[j]
				}
				g := dense[slot]
				if g == 0 {
					g = b.addGroup() + 1
					for _, ki := range b.keyIdx {
						b.keyVals = append(b.keyVals, c.Columns[ki].Int64s[i])
					}
					b.index(g - 1)
					dense[slot] = g
				}
				rg[i] = g - 1
			}
			return
		}
	}

	if b.fast {
		keyCol := c.Columns[b.keyIdx[0]]
		for i := 0; i < n; i++ {
			k := keyCol.Int64At(i)
			g, ok := b.fgroups[k]
			if !ok {
				g = b.addGroup()
				b.keyVals = append(b.keyVals, k)
				b.fgroups[k] = g
			}
			rg[i] = g
		}
		return
	}

	for i := 0; i < n; i++ {
		b.keyBuf = b.keyBuf[:0]
		for _, ki := range b.keyIdx {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(c.Columns[ki].Int64At(i)))
			b.keyBuf = append(b.keyBuf, tmp[:]...)
		}
		g, ok := b.groups[string(b.keyBuf)]
		if !ok {
			g = b.addGroup()
			for _, ki := range b.keyIdx {
				b.keyVals = append(b.keyVals, c.Columns[ki].Int64At(i))
			}
			b.groups[string(b.keyBuf)] = g
		}
		rg[i] = g
	}
}

// denseTable decides whether the chunk's key columns admit direct-index
// grouping: all keys Int64, and the product of their value spans at most
// 4× the row count (and < 2^16, bounding the table). It returns the empty
// table, per-key minima and row-major strides.
func (b *aggBuilder) denseTable(c *columnar.Chunk, n int) ([]int32, []int64, []int64, bool) {
	const maxSlots = 1 << 16
	los := make([]int64, len(b.keyIdx))
	spans := make([]int64, len(b.keyIdx))
	for j, ki := range b.keyIdx {
		col := c.Columns[ki]
		if col.Type != columnar.Int64 {
			return nil, nil, nil, false
		}
		lo, hi := col.Int64s[0], col.Int64s[0]
		for _, k := range col.Int64s {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		if uint64(hi)-uint64(lo) >= maxSlots {
			return nil, nil, nil, false
		}
		los[j], spans[j] = lo, hi-lo+1
	}
	slots := int64(1)
	for _, s := range spans {
		if slots *= s; slots >= maxSlots {
			return nil, nil, nil, false
		}
	}
	if slots > 4*int64(n) {
		return nil, nil, nil, false
	}
	strides := make([]int64, len(spans))
	stride := int64(1)
	for j := len(spans) - 1; j >= 0; j-- {
		strides[j] = stride
		stride *= spans[j]
	}
	return make([]int32, slots), los, strides, true
}

// index registers group g in the hash table (the dense path keeps the map
// coherent so a builder stays usable for further, non-dense chunks).
func (b *aggBuilder) index(g int32) {
	nk := len(b.keyIdx)
	keys := b.keyVals[int(g)*nk : int(g+1)*nk]
	if b.fast {
		b.fgroups[keys[0]] = g
		return
	}
	b.keyBuf = b.keyBuf[:0]
	for _, k := range keys {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(k))
		b.keyBuf = append(b.keyBuf, tmp[:]...)
	}
	b.groups[string(b.keyBuf)] = g
}

// lookup finds the master ordinal for the o-side group og, or -1.
func (b *aggBuilder) lookup(o *aggBuilder, og int32) int32 {
	nk := len(b.keyIdx)
	if nk == 0 {
		if b.numGroups() == 0 {
			return -1
		}
		return 0
	}
	keys := o.keyVals[int(og)*nk : int(og+1)*nk]
	if b.fast {
		if g, ok := b.fgroups[keys[0]]; ok {
			return g
		}
		return -1
	}
	b.keyBuf = b.keyBuf[:0]
	for _, k := range keys {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(k))
		b.keyBuf = append(b.keyBuf, tmp[:]...)
	}
	if g, ok := b.groups[string(b.keyBuf)]; ok {
		return g
	}
	return -1
}

// mergeFrom folds another builder's partial groups into b, in o's
// first-seen order. Both builders must come from the same plan; o is only
// read. Callers fold partials in arrival order, so float sums
// combine in the same order on every run.
func (b *aggBuilder) mergeFrom(o *aggBuilder) {
	nk := len(b.keyIdx)
	for og := int32(0); og < int32(o.numGroups()); og++ {
		g := b.lookup(o, og)
		if g < 0 {
			g = b.addGroup()
			b.keyVals = append(b.keyVals, o.keyVals[int(og)*nk:int(og+1)*nk]...)
			if nk > 0 {
				b.index(g)
			}
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
		g := b.addGroup()
		for ai := range b.p.Aggs {
			b.mins[ai][g] = 0
			b.maxs[ai][g] = 0
		}
	}

	nk := len(b.p.GroupBy)
	out := columnar.NewChunk(outSchema, b.numGroups())
	for g := 0; g < b.numGroups(); g++ {
		col := 0
		for j := 0; j < nk; j++ {
			out.Columns[col].AppendInt64(b.keyVals[g*nk+j])
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
