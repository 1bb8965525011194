package columnar

import "sync"

// Pool recycles vectors and chunks across morsels of a query pipeline,
// keeping the hot path allocation-free once warm.
//
// Ownership contract (who may recycle, and when):
//
//   - Only the operator that obtained a chunk from the pool (via GetChunk)
//     may return it (via PutChunk), and only after every consumer of the
//     morsel it belongs to has finished reading it. In the morsel-driven
//     executor that point is the pipeline breaker: the aggregation operator
//     recycles a gathered chunk right after folding it into its hash table.
//   - Chunks obtained from a scan source, schema projections, and Slice
//     views must never be recycled: their vectors are shared with (or owned
//     by) someone else. PutChunk on an aliased chunk is a use-after-free.
//   - After PutChunk returns, the caller must not touch the chunk or any of
//     its vectors again.
//
// A Pool belongs to one query operator and holds plain free lists, not
// sync.Pools: what it recycled dies with it, instead of staying reachable
// through the runtime's pool registry for two collections after the query.
// It is safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	vecs   [3][]*Vector // indexed by Type
	chunks []*Chunk
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// GetVector returns an empty vector of type t, reusing a recycled one when
// available (its capacity is whatever its previous life grew to; n is only a
// hint for fresh allocations).
func (p *Pool) GetVector(t Type, n int) *Vector {
	p.mu.Lock()
	free := p.vecs[t]
	if len(free) == 0 {
		p.mu.Unlock()
		return NewVector(t, n)
	}
	v := free[len(free)-1]
	p.vecs[t] = free[:len(free)-1]
	p.mu.Unlock()
	v.Reset()
	return v
}

// PutVector recycles v. The caller must not use v afterwards.
func (p *Pool) PutVector(v *Vector) {
	if v == nil {
		return
	}
	p.mu.Lock()
	p.vecs[v.Type] = append(p.vecs[v.Type], v)
	p.mu.Unlock()
}

// GetChunk returns an empty chunk for schema with capacity hint n, reusing
// recycled vectors and chunk shells when available.
func (p *Pool) GetChunk(schema *Schema, n int) *Chunk {
	var c *Chunk
	p.mu.Lock()
	if n := len(p.chunks); n > 0 {
		c = p.chunks[n-1]
		p.chunks = p.chunks[:n-1]
	}
	p.mu.Unlock()
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
	if c == nil {
		return
	}
	for i, v := range c.Columns {
		p.PutVector(v)
		c.Columns[i] = nil
	}
	c.Schema = nil
	p.mu.Lock()
	p.chunks = append(p.chunks, c)
	p.mu.Unlock()
}
