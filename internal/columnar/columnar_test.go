package columnar

import (
	"reflect"
	"testing"
	"testing/quick"
)

func twoColSchema() *Schema {
	return NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Float64})
}

func TestTypeStringsAndWidths(t *testing.T) {
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" || Bool.String() != "BOOLEAN" {
		t.Error("type names wrong")
	}
	if Int64.Width() != 8 || Float64.Width() != 8 || Bool.Width() != 1 {
		t.Error("widths wrong")
	}
}

func TestSchemaIndexAndProject(t *testing.T) {
	s := twoColSchema()
	if s.Index("b") != 1 || s.Index("zzz") != -1 {
		t.Error("Index wrong")
	}
	p, err := s.Project("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fields[0].Name != "b" || p.Fields[1].Name != "a" {
		t.Errorf("projected = %v", p)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting missing column succeeded")
	}
	if !s.Equal(twoColSchema()) {
		t.Error("Equal false for identical schemas")
	}
	if s.Equal(p) {
		t.Error("Equal true for reordered schemas")
	}
	if s.String() != "a BIGINT, b DOUBLE" {
		t.Errorf("String = %q", s.String())
	}
}

func TestVectorAppendTypeSafety(t *testing.T) {
	v := NewVector(Int64, 4)
	defer func() {
		if recover() == nil {
			t.Error("AppendFloat64 on Int64 vector did not panic")
		}
	}()
	v.AppendFloat64(1.0)
}

func TestVectorSliceGatherCoerce(t *testing.T) {
	v := NewVector(Int64, 4)
	for i := int64(0); i < 6; i++ {
		v.AppendInt64(i * 10)
	}
	sl := v.Slice(2, 5)
	if !reflect.DeepEqual(sl.Int64s, []int64{20, 30, 40}) {
		t.Errorf("slice = %v", sl.Int64s)
	}
	g := v.Gather([]int{5, 0, 3})
	if !reflect.DeepEqual(g.Int64s, []int64{50, 0, 30}) {
		t.Errorf("gather = %v", g.Int64s)
	}
	if v.Float64At(3) != 30.0 || v.Int64At(3) != 30 {
		t.Error("coercions wrong")
	}
	b := NewVector(Bool, 2)
	b.AppendBool(true)
	b.AppendBool(false)
	if b.Float64At(0) != 1 || b.Float64At(1) != 0 || b.Int64At(0) != 1 {
		t.Error("bool coercions wrong")
	}
}

func TestChunkBasics(t *testing.T) {
	c := NewChunk(twoColSchema(), 4)
	for i := 0; i < 4; i++ {
		c.Columns[0].AppendInt64(int64(i))
		c.Columns[1].AppendFloat64(float64(i) / 2)
	}
	if c.NumRows() != 4 {
		t.Errorf("rows = %d", c.NumRows())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	if c.Column("b") == nil || c.Column("zzz") != nil {
		t.Error("Column lookup wrong")
	}
	if c.ByteSize() != 4*8+4*8 {
		t.Errorf("byte size = %d", c.ByteSize())
	}
	sl := c.Slice(1, 3)
	if sl.NumRows() != 2 || sl.Columns[0].Int64s[0] != 1 {
		t.Error("chunk slice wrong")
	}
	g := c.Gather([]int{3, 1})
	if g.Columns[1].Float64s[0] != 1.5 {
		t.Error("chunk gather wrong")
	}
	p, err := c.Project("b")
	if err != nil || p.Schema.Len() != 1 || p.Columns[0].Len() != 4 {
		t.Errorf("project: %v %v", p, err)
	}
}

func TestChunkAppendRow(t *testing.T) {
	src := NewChunk(twoColSchema(), 2)
	src.Columns[0].AppendInt64(7)
	src.Columns[1].AppendFloat64(3.5)
	dst := NewChunk(twoColSchema(), 2)
	dst.AppendGather(src, []int{0})
	if dst.NumRows() != 1 || dst.Columns[0].Int64s[0] != 7 || dst.Columns[1].Float64s[0] != 3.5 {
		t.Error("AppendGather of one row wrong")
	}
}

func TestValidateCatchesRaggedChunks(t *testing.T) {
	c := NewChunk(twoColSchema(), 2)
	c.Columns[0].AppendInt64(1)
	// column b left empty → ragged
	if err := c.Validate(); err == nil {
		t.Error("ragged chunk validated")
	}
	c2 := &Chunk{Schema: twoColSchema(), Columns: []*Vector{NewVector(Int64, 0)}}
	if err := c2.Validate(); err == nil {
		t.Error("missing column validated")
	}
	c3 := &Chunk{Schema: twoColSchema(), Columns: []*Vector{NewVector(Float64, 0), NewVector(Float64, 0)}}
	if err := c3.Validate(); err == nil {
		t.Error("wrong-typed column validated")
	}
}

// Property: Gather(Slice) distributes — slicing then gathering equals
// gathering shifted indices.
func TestPropertySliceGatherConsistent(t *testing.T) {
	f := func(vals []int64, loRaw, hiRaw uint8) bool {
		v := NewVector(Int64, len(vals))
		v.Int64s = append(v.Int64s, vals...)
		n := v.Len()
		if n == 0 {
			return true
		}
		lo := int(loRaw) % n
		hi := lo + int(hiRaw)%(n-lo) + 1
		sl := v.Slice(lo, hi)
		idx := make([]int, sl.Len())
		shifted := make([]int, sl.Len())
		for i := range idx {
			idx[i] = i
			shifted[i] = lo + i
		}
		return reflect.DeepEqual(sl.Gather(idx).Int64s, v.Gather(shifted).Int64s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
