// Package columnar provides the in-memory table representation of the query
// engine: typed column vectors grouped into chunks, exchanged between
// operators at vector granularity. The paper's engine JIT-compiles pipelines
// over columnar chunks; this package is the Go equivalent of those chunk
// data structures.
//
// The type system mirrors the paper's evaluation setup: the modified dbgen
// generates numbers instead of strings, so the supported types are Int64,
// Float64 and Bool. Null values are not modeled (TPC-H LINEITEM contains
// none).
package columnar

import (
	"fmt"
	"slices"
	"strings"
)

// Type is a column data type.
type Type uint8

// Supported column types.
const (
	Int64 Type = iota
	Float64
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Bool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Width returns the plain-encoded byte width of one value.
func (t Type) Width() int {
	if t == Bool {
		return 1
	}
	return 8
}

// Field is one schema column.
type Field struct {
	Name string
	Type Type
}

// Schema describes the columns of a table.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return &Schema{Fields: fields} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.Fields[i] }

// Project returns a schema with only the named columns, in the given order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	out := &Schema{}
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("columnar: no column %q", n)
		}
		out.Fields = append(out.Fields, s.Fields[i])
	}
	return out, nil
}

// Equal reports whether two schemas have identical fields.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// String formats the schema as "name TYPE, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.Name + " " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Vector is one typed column of values. Exactly one of the value slices is
// populated, matching Type.
type Vector struct {
	Type     Type
	Int64s   []int64
	Float64s []float64
	Bools    []bool
}

// NewVector returns an empty vector of the given type with capacity hint n.
func NewVector(t Type, n int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case Int64:
		v.Int64s = make([]int64, 0, n)
	case Float64:
		v.Float64s = make([]float64, 0, n)
	case Bool:
		v.Bools = make([]bool, 0, n)
	}
	return v
}

// Len returns the number of values.
func (v *Vector) Len() int {
	switch v.Type {
	case Int64:
		return len(v.Int64s)
	case Float64:
		return len(v.Float64s)
	default:
		return len(v.Bools)
	}
}

// AppendInt64 appends an int64 value (panics on type mismatch).
func (v *Vector) AppendInt64(x int64) {
	if v.Type != Int64 {
		panic("columnar: AppendInt64 on " + v.Type.String())
	}
	v.Int64s = append(v.Int64s, x)
}

// AppendFloat64 appends a float64 value.
func (v *Vector) AppendFloat64(x float64) {
	if v.Type != Float64 {
		panic("columnar: AppendFloat64 on " + v.Type.String())
	}
	v.Float64s = append(v.Float64s, x)
}

// AppendBool appends a bool value.
func (v *Vector) AppendBool(x bool) {
	if v.Type != Bool {
		panic("columnar: AppendBool on " + v.Type.String())
	}
	v.Bools = append(v.Bools, x)
}

// Append copies value i of src (same type) onto v.
func (v *Vector) Append(src *Vector, i int) {
	switch v.Type {
	case Int64:
		v.Int64s = append(v.Int64s, src.Int64s[i])
	case Float64:
		v.Float64s = append(v.Float64s, src.Float64s[i])
	case Bool:
		v.Bools = append(v.Bools, src.Bools[i])
	}
}

// AppendVector bulk-appends all values of src (same type) onto v.
func (v *Vector) AppendVector(src *Vector) {
	switch v.Type {
	case Int64:
		v.Int64s = append(v.Int64s, src.Int64s...)
	case Float64:
		v.Float64s = append(v.Float64s, src.Float64s...)
	case Bool:
		v.Bools = append(v.Bools, src.Bools...)
	}
}

// AppendRange bulk-appends values [lo, hi) of src (same type) onto v.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	switch v.Type {
	case Int64:
		v.Int64s = append(v.Int64s, src.Int64s[lo:hi]...)
	case Float64:
		v.Float64s = append(v.Float64s, src.Float64s[lo:hi]...)
	case Bool:
		v.Bools = append(v.Bools, src.Bools[lo:hi]...)
	}
}

// Cap returns the number of values v can hold without reallocating.
func (v *Vector) Cap() int {
	switch v.Type {
	case Int64:
		return cap(v.Int64s)
	case Float64:
		return cap(v.Float64s)
	default:
		return cap(v.Bools)
	}
}

// Grow makes room for n more values, so that appending them does not
// reallocate.
func (v *Vector) Grow(n int) {
	switch v.Type {
	case Int64:
		v.Int64s = slices.Grow(v.Int64s, n)
	case Float64:
		v.Float64s = slices.Grow(v.Float64s, n)
	case Bool:
		v.Bools = slices.Grow(v.Bools, n)
	}
}

// AppendGather bulk-appends the rows of src selected by idx onto v.
func (v *Vector) AppendGather(src *Vector, idx []int) {
	switch v.Type {
	case Int64:
		for _, i := range idx {
			v.Int64s = append(v.Int64s, src.Int64s[i])
		}
	case Float64:
		for _, i := range idx {
			v.Float64s = append(v.Float64s, src.Float64s[i])
		}
	case Bool:
		for _, i := range idx {
			v.Bools = append(v.Bools, src.Bools[i])
		}
	}
}

// Reset truncates the vector to zero length, keeping its capacity.
func (v *Vector) Reset() {
	v.Int64s = v.Int64s[:0]
	v.Float64s = v.Float64s[:0]
	v.Bools = v.Bools[:0]
}

// Slice returns a view of rows [lo, hi).
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Type: v.Type}
	switch v.Type {
	case Int64:
		out.Int64s = v.Int64s[lo:hi]
	case Float64:
		out.Float64s = v.Float64s[lo:hi]
	case Bool:
		out.Bools = v.Bools[lo:hi]
	}
	return out
}

// Gather returns a new vector with the rows selected by idx.
func (v *Vector) Gather(idx []int) *Vector {
	out := NewVector(v.Type, len(idx))
	switch v.Type {
	case Int64:
		for _, i := range idx {
			out.Int64s = append(out.Int64s, v.Int64s[i])
		}
	case Float64:
		for _, i := range idx {
			out.Float64s = append(out.Float64s, v.Float64s[i])
		}
	case Bool:
		for _, i := range idx {
			out.Bools = append(out.Bools, v.Bools[i])
		}
	}
	return out
}

// Scatter returns a new vector holding value i of v at position dest[i];
// dest must be a permutation of [0, v.Len()). It is Gather's inverse.
func (v *Vector) Scatter(dest []int) *Vector {
	out := &Vector{Type: v.Type}
	switch v.Type {
	case Int64:
		out.Int64s = make([]int64, len(dest))
		for i, d := range dest {
			out.Int64s[d] = v.Int64s[i]
		}
	case Float64:
		out.Float64s = make([]float64, len(dest))
		for i, d := range dest {
			out.Float64s[d] = v.Float64s[i]
		}
	case Bool:
		out.Bools = make([]bool, len(dest))
		for i, d := range dest {
			out.Bools[d] = v.Bools[i]
		}
	}
	return out
}

// Float64At returns value i coerced to float64 (Bool → 0/1).
func (v *Vector) Float64At(i int) float64 {
	switch v.Type {
	case Int64:
		return float64(v.Int64s[i])
	case Float64:
		return v.Float64s[i]
	default:
		if v.Bools[i] {
			return 1
		}
		return 0
	}
}

// Int64At returns value i coerced to int64 (Float64 truncated).
func (v *Vector) Int64At(i int) int64 {
	switch v.Type {
	case Int64:
		return v.Int64s[i]
	case Float64:
		return int64(v.Float64s[i])
	default:
		if v.Bools[i] {
			return 1
		}
		return 0
	}
}

// Chunk is a batch of rows in columnar form.
type Chunk struct {
	Schema  *Schema
	Columns []*Vector
}

// NewChunk returns an empty chunk for schema with capacity hint n.
func NewChunk(schema *Schema, n int) *Chunk {
	c := &Chunk{Schema: schema, Columns: make([]*Vector, schema.Len())}
	for i, f := range schema.Fields {
		c.Columns[i] = NewVector(f.Type, n)
	}
	return c
}

// NumRows returns the row count.
func (c *Chunk) NumRows() int {
	if len(c.Columns) == 0 {
		return 0
	}
	return c.Columns[0].Len()
}

// Column returns the vector of the named column, or nil.
func (c *Chunk) Column(name string) *Vector {
	i := c.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return c.Columns[i]
}

// AppendRow copies row i of src (same schema order) onto c.
func (c *Chunk) AppendRow(src *Chunk, i int) {
	for j, col := range c.Columns {
		col.Append(src.Columns[j], i)
	}
}

// AppendChunk bulk-appends all rows of src (same schema order) onto c.
func (c *Chunk) AppendChunk(src *Chunk) {
	for j, col := range c.Columns {
		col.AppendVector(src.Columns[j])
	}
}

// AppendGather bulk-appends the rows of src selected by idx onto c.
func (c *Chunk) AppendGather(src *Chunk, idx []int) {
	for j, col := range c.Columns {
		col.AppendGather(src.Columns[j], idx)
	}
}

// Slice returns a zero-copy view of rows [lo, hi).
func (c *Chunk) Slice(lo, hi int) *Chunk {
	out := &Chunk{Schema: c.Schema, Columns: make([]*Vector, len(c.Columns))}
	for i, col := range c.Columns {
		out.Columns[i] = col.Slice(lo, hi)
	}
	return out
}

// Gather returns a new chunk with the rows selected by idx.
func (c *Chunk) Gather(idx []int) *Chunk {
	out := &Chunk{Schema: c.Schema, Columns: make([]*Vector, len(c.Columns))}
	for i, col := range c.Columns {
		out.Columns[i] = col.Gather(idx)
	}
	return out
}

// Scatter returns a new chunk holding row i of c at position dest[i]; dest
// must be a permutation of [0, c.NumRows()).
func (c *Chunk) Scatter(dest []int) *Chunk {
	out := &Chunk{Schema: c.Schema, Columns: make([]*Vector, len(c.Columns))}
	for i, col := range c.Columns {
		out.Columns[i] = col.Scatter(dest)
	}
	return out
}

// Project returns a chunk with only the named columns (vectors shared).
func (c *Chunk) Project(names ...string) (*Chunk, error) {
	schema, err := c.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	out := &Chunk{Schema: schema, Columns: make([]*Vector, len(names))}
	for i, n := range names {
		out.Columns[i] = c.Columns[c.Schema.Index(n)]
	}
	return out, nil
}

// Validate checks that all columns have equal length and matching types.
func (c *Chunk) Validate() error {
	if len(c.Columns) != c.Schema.Len() {
		return fmt.Errorf("columnar: %d columns for %d fields", len(c.Columns), c.Schema.Len())
	}
	n := c.NumRows()
	for i, col := range c.Columns {
		if col.Type != c.Schema.Fields[i].Type {
			return fmt.Errorf("columnar: column %d type %v, schema %v", i, col.Type, c.Schema.Fields[i].Type)
		}
		if col.Len() != n {
			return fmt.Errorf("columnar: column %d has %d rows, expected %d", i, col.Len(), n)
		}
	}
	return nil
}

// ByteSize returns the plain in-memory size of the chunk payload.
func (c *Chunk) ByteSize() int64 {
	var n int64
	for i, col := range c.Columns {
		n += int64(col.Len()) * int64(c.Schema.Fields[i].Type.Width())
	}
	return n
}
