package columnar

import "testing"

func TestPoolRecyclesVectorsAndChunks(t *testing.T) {
	p := NewPool()
	schema := NewSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "b", Type: Float64},
		Field{Name: "c", Type: Bool},
	)
	c := p.GetChunk(schema, 16)
	for i := 0; i < 16; i++ {
		c.Columns[0].AppendInt64(int64(i))
		c.Columns[1].AppendFloat64(float64(i))
		c.Columns[2].AppendBool(i%2 == 0)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	p.PutChunk(c)

	// A recycled chunk comes back empty, with matching column types.
	c2 := p.GetChunk(schema, 4)
	if c2.NumRows() != 0 {
		t.Fatalf("recycled chunk has %d rows", c2.NumRows())
	}
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
	c2.Columns[0].AppendInt64(7)
	if got := c2.Columns[0].Int64s[0]; got != 7 {
		t.Fatalf("append after recycle = %d", got)
	}
	p.PutChunk(c2)

	v := p.GetVector(Float64, 8)
	if v.Type != Float64 || v.Len() != 0 {
		t.Fatalf("GetVector = %v len %d", v.Type, v.Len())
	}
	p.PutVector(v)

	// A recycled selection comes back empty, with its capacity.
	sel := append(p.GetSelection(), 3, 5, 8)
	p.PutSelection(sel)
	if again := p.GetSelection(); len(again) != 0 || cap(again) != cap(sel) {
		t.Fatalf("recycled selection: len %d cap %d, want 0 and %d", len(again), cap(again), cap(sel))
	}

	// A nil pool allocates every Get and drops every Put.
	var none *Pool
	if v := none.GetVector(Int64, 4); v.Type != Int64 || v.Len() != 0 || v.Cap() < 4 {
		t.Fatalf("nil pool GetVector = %v len %d cap %d", v.Type, v.Len(), v.Cap())
	}
	none.PutVector(v)
	none.PutSelection(sel)
	if got := none.GetSelection(); got != nil {
		t.Fatalf("nil pool GetSelection = %v", got)
	}
	nc := none.GetChunk(schema, 4)
	if err := nc.Validate(); err != nil || nc.NumRows() != 0 || len(nc.Columns) != schema.Len() {
		t.Fatalf("nil pool GetChunk = %d rows, %d columns, %v", nc.NumRows(), len(nc.Columns), err)
	}
	none.PutChunk(nc)
	if nc.Schema != schema {
		t.Fatal("nil pool PutChunk took the chunk it was to drop")
	}
}
