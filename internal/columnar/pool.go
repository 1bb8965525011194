package columnar

// Pool recycles vectors, chunks and selection vectors across the morsels
// of one scan or one query pipeline, keeping the hot path allocation-free
// once warm.
//
// Ownership contract: only the owner of a buffer may return it, and only
// once nothing reads it any more. A morsel's buffers have five recycle
// points:
//
//  1. a scan, once it has gathered a row group's decoded pages by their
//     per-page selections into the chunk it yields: the pages and the
//     selections;
//  2. an expression temporary — a Bin, Not or constant result, never a
//     column reference's shared vector — once its parent has consumed it;
//  3. the aggregation breaker, once it has folded a morsel into its hash
//     table: the morsel's gathered chunks and its argument vectors;
//  4. the same breaker, at the same moment: the chunk the scan yielded,
//     handed back to the scan source through engine.Recycler;
//  5. the collect breaker of a stream its source counted (engine.RowCounter),
//     once it has copied the morsel into its exact-size output: the chunk the
//     scan yielded, handed back the same way. Any other collect, a sort and a
//     limit keep their chunks and hand back none.
//
// Schema projections and Slice views are never recycled: their vectors are
// shared with (or owned by) someone else, and PutChunk or PutVector on an
// aliased buffer is a use-after-free. After a Put returns, the caller must
// not touch the buffer again.
//
// A Pool belongs to one scan source or one pipeline, and is used by the one
// goroutine that runs it: it holds plain free lists, with no lock and not
// sync.Pools, so what it recycled dies with its owner instead of staying
// reachable through the runtime's pool registry for two collections after
// the query. A nil *Pool allocates every Get and drops every Put.
type Pool struct {
	vecs   [3][]*Vector // indexed by Type
	chunks []*Chunk
	sels   [][]int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// GetVector returns an empty vector of type t, reusing a recycled one when
// available (its capacity is whatever its previous life grew to; n is only a
// hint for fresh allocations).
func (p *Pool) GetVector(t Type, n int) *Vector {
	if p == nil {
		return NewVector(t, n)
	}
	free := p.vecs[t]
	if len(free) == 0 {
		return NewVector(t, n)
	}
	v := free[len(free)-1]
	p.vecs[t] = free[:len(free)-1]
	v.Reset()
	return v
}

// PutVector recycles v. The caller must not use v afterwards.
func (p *Pool) PutVector(v *Vector) {
	if p == nil || v == nil {
		return
	}
	p.vecs[v.Type] = append(p.vecs[v.Type], v)
}

// GetChunk returns an empty chunk for schema with capacity hint n, reusing
// recycled vectors and chunk shells when available.
func (p *Pool) GetChunk(schema *Schema, n int) *Chunk {
	var c *Chunk
	if p != nil && len(p.chunks) > 0 {
		c = p.chunks[len(p.chunks)-1]
		p.chunks = p.chunks[:len(p.chunks)-1]
	}
	if c != nil {
		if cap(c.Columns) < schema.Len() {
			c.Columns = make([]*Vector, schema.Len())
		}
		c.Columns = c.Columns[:schema.Len()]
	} else {
		c = &Chunk{Columns: make([]*Vector, schema.Len())}
	}
	c.Schema = schema
	for i, f := range schema.Fields {
		c.Columns[i] = p.GetVector(f.Type, n)
	}
	return c
}

// PutChunk recycles c and all its vectors. See the ownership contract above:
// c must have come from GetChunk and must no longer be referenced anywhere.
func (p *Pool) PutChunk(c *Chunk) {
	if p == nil || c == nil {
		return
	}
	for i, v := range c.Columns {
		p.PutVector(v)
		c.Columns[i] = nil
	}
	c.Schema = nil
	p.chunks = append(p.chunks, c)
}

// GetSelection returns an empty selection vector, reusing a recycled one
// when available.
func (p *Pool) GetSelection() []int {
	if p == nil {
		return nil
	}
	n := len(p.sels)
	if n == 0 {
		return nil
	}
	sel := p.sels[n-1]
	p.sels = p.sels[:n-1]
	return sel[:0]
}

// PutSelection recycles sel. The caller must not use sel afterwards.
func (p *Pool) PutSelection(sel []int) {
	if p == nil || cap(sel) == 0 {
		return
	}
	p.sels = append(p.sels, sel)
}
