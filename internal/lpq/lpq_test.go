package lpq

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lambada/internal/columnar"
)

func testSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	)
}

func makeChunk(n int, seed int64) *columnar.Chunk {
	rng := rand.New(rand.NewSource(seed))
	c := columnar.NewChunk(testSchema(), n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(i)) // sorted → delta
		c.Columns[1].AppendFloat64(rng.Float64() * 100)
		c.Columns[2].AppendBool(rng.Intn(10) > 2)
	}
	return c
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, 123456789} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round trip = %d", v, got)
		}
	}
}

func TestEncodingsRoundTrip(t *testing.T) {
	ints := columnar.NewVector(columnar.Int64, 0)
	for _, x := range []int64{5, 5, 5, -3, -3, 100, 0, 0, 0, 0, math.MaxInt64, math.MinInt64} {
		ints.AppendInt64(x)
	}
	floats := columnar.NewVector(columnar.Float64, 0)
	for _, x := range []float64{1.5, 1.5, -2.25, math.Pi, 1.5, 0} {
		floats.AppendFloat64(x)
	}
	bools := columnar.NewVector(columnar.Bool, 0)
	for _, x := range []bool{true, true, false, true, false, false, false} {
		bools.AppendBool(x)
	}

	cases := []struct {
		v   *columnar.Vector
		enc Encoding
	}{
		{ints, Plain}, {ints, RLE}, {ints, Delta}, {ints, Dict},
		{floats, Plain}, {floats, Dict},
		{bools, Plain}, {bools, RLE},
	}
	for _, tc := range cases {
		data, err := EncodeColumn(tc.v, tc.enc)
		if err != nil {
			t.Errorf("%v/%v encode: %v", tc.v.Type, tc.enc, err)
			continue
		}
		got, err := DecodeColumn(data, tc.v.Type, tc.enc, tc.v.Len())
		if err != nil {
			t.Errorf("%v/%v decode: %v", tc.v.Type, tc.enc, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%v/%v round trip mismatch", tc.v.Type, tc.enc)
		}
	}
}

func TestUnsupportedEncodings(t *testing.T) {
	floats := columnar.NewVector(columnar.Float64, 0)
	floats.AppendFloat64(1)
	if _, err := EncodeColumn(floats, Delta); err == nil {
		t.Error("delta on float64 accepted")
	}
	if _, err := EncodeColumn(floats, RLE); err == nil {
		t.Error("RLE on float64 accepted")
	}
	bools := columnar.NewVector(columnar.Bool, 0)
	bools.AppendBool(true)
	if _, err := EncodeColumn(bools, Dict); err == nil {
		t.Error("dict on bool accepted")
	}
}

func TestCorruptDataErrors(t *testing.T) {
	v := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 10; i++ {
		v.AppendInt64(int64(i * 1000))
	}
	for _, enc := range []Encoding{Plain, RLE, Delta, Dict} {
		data, err := EncodeColumn(v, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 {
			continue
		}
		if _, err := DecodeColumn(data[:len(data)/2], columnar.Int64, enc, 10); err == nil {
			t.Errorf("%v: decoding truncated data succeeded", enc)
		}
	}
}

func TestChooseEncodingHeuristics(t *testing.T) {
	sorted := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 1000; i++ {
		sorted.AppendInt64(int64(i * 3))
	}
	if e := ChooseEncoding(sorted); e != Delta {
		t.Errorf("sorted ints → %v, want DELTA", e)
	}
	runs := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 1000; i++ {
		runs.AppendInt64(int64(i / 100))
	}
	if e := ChooseEncoding(runs); e != RLE {
		t.Errorf("runny ints → %v, want RLE", e)
	}
	lowCard := columnar.NewVector(columnar.Int64, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		lowCard.AppendInt64(int64(rng.Intn(7)) * 1000000)
	}
	if e := ChooseEncoding(lowCard); e != Dict {
		t.Errorf("low-cardinality ints → %v, want DICT", e)
	}
	random := columnar.NewVector(columnar.Float64, 0)
	for i := 0; i < 1000; i++ {
		random.AppendFloat64(rng.Float64())
	}
	if e := ChooseEncoding(random); e != Plain {
		t.Errorf("random floats → %v, want PLAIN", e)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, comp := range []Compression{None, Gzip} {
		chunk := makeChunk(1000, 42)
		data, err := WriteFile(testSchema(), WriterOptions{RowGroupRows: 300, Compression: comp}, chunk)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%v: open: %v", comp, err)
		}
		if r.MetadataReads != 1 {
			t.Errorf("%v: footer took %d reads, want 1", comp, r.MetadataReads)
		}
		if got := r.Meta().NumRowGroups(); got != 4 { // 300+300+300+100
			t.Errorf("%v: row groups = %d, want 4", comp, got)
		}
		if r.Meta().TotalRows != 1000 {
			t.Errorf("%v: total rows = %d", comp, r.Meta().TotalRows)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%v: read all: %v", comp, err)
		}
		if !reflect.DeepEqual(got.Columns, chunk.Columns) {
			t.Errorf("%v: data mismatch after round trip", comp)
		}
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	// A compressible chunk (sorted ints, low-cardinality floats).
	c := columnar.NewChunk(testSchema(), 10000)
	for i := 0; i < 10000; i++ {
		c.Columns[0].AppendInt64(int64(i))
		c.Columns[1].AppendFloat64(float64(i % 3))
		c.Columns[2].AppendBool(i%2 == 0)
	}
	plain, err := WriteFile(testSchema(), WriterOptions{ForceEncoding: map[int]Encoding{0: Plain, 1: Plain, 2: Plain}}, c)
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := WriteFile(testSchema(), WriterOptions{Compression: Gzip, ForceEncoding: map[int]Encoding{0: Plain, 1: Plain, 2: Plain}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(zipped) >= len(plain)/2 {
		t.Errorf("gzip size %d not < half of plain %d", len(zipped), len(plain))
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema(), WriterOptions{})
	other := columnar.NewChunk(columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64}), 0)
	if err := w.Write(other); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema(), WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(makeChunk(1, 1)); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := OpenReader(bytes.NewReader([]byte("hi")), 2); err == nil {
		t.Error("tiny file accepted")
	}
	junk := make([]byte, 100)
	if _, err := OpenReader(bytes.NewReader(junk), 100); err == nil {
		t.Error("junk accepted")
	}
	// Valid magic but absurd footer length.
	bad := make([]byte, 100)
	copy(bad[96:], Magic[:])
	bad[92] = 0xff
	bad[93] = 0xff
	bad[94] = 0xff
	if _, err := OpenReader(bytes.NewReader(bad), 100); err == nil {
		t.Error("absurd footer length accepted")
	}
}

func TestStatsAndPruning(t *testing.T) {
	// 10 row groups of 100 rows; id ranges [0,99], [100,199], ...
	chunk := makeChunk(1000, 7)
	data, err := WriteFile(testSchema(), WriterOptions{RowGroupRows: 100}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Meta()
	st := meta.RowGroups[3].Columns[0].Stats
	if !st.HasMinMax || st.MinInt != 300 || st.MaxInt != 399 {
		t.Errorf("rg3 id stats = %+v", st)
	}
	keep := PruneRowGroups(meta, []Predicate{{Column: "id", Min: 250, Max: 449}})
	if !reflect.DeepEqual(keep, []int{2, 3, 4}) {
		t.Errorf("pruned to %v, want [2 3 4]", keep)
	}
	// A predicate selecting nothing prunes everything.
	if keep := PruneRowGroups(meta, []Predicate{{Column: "id", Min: 5000, Max: 6000}}); keep != nil {
		t.Errorf("out-of-range predicate kept %v", keep)
	}
	// Unknown columns and disabled stats keep everything.
	if keep := PruneRowGroups(meta, []Predicate{{Column: "zzz", Min: 0, Max: 0}}); len(keep) != 10 {
		t.Errorf("unknown column pruned to %d groups", len(keep))
	}
}

func TestDisableStats(t *testing.T) {
	chunk := makeChunk(100, 7)
	data, err := WriteFile(testSchema(), WriterOptions{DisableStats: true}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta().RowGroups[0].Columns[0].Stats.HasMinMax {
		t.Error("stats present despite DisableStats")
	}
	if keep := PruneRowGroups(r.Meta(), []Predicate{{Column: "id", Min: 1e9, Max: 2e9}}); len(keep) != 1 {
		t.Errorf("stats-less pruning kept %d, want all", len(keep))
	}
}

func TestProjectedReadRowGroup(t *testing.T) {
	chunk := makeChunk(500, 3)
	data, _ := WriteFile(testSchema(), WriterOptions{RowGroupRows: 500}, chunk)
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRowGroup(0, []int{2, 0}) // flag, id — reordered projection
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Fields[0].Name != "flag" || got.Schema.Fields[1].Name != "id" {
		t.Errorf("projected schema = %v", got.Schema)
	}
	if !reflect.DeepEqual(got.Columns[1].Int64s, chunk.Columns[0].Int64s) {
		t.Error("projected id column mismatch")
	}
}

func TestByteRange(t *testing.T) {
	chunk := makeChunk(600, 3)
	data, _ := WriteFile(testSchema(), WriterOptions{RowGroupRows: 200}, chunk)
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var prevHi int64
	for g, rg := range r.Meta().RowGroups {
		lo, hi := rg.ByteRange()
		if lo < prevHi {
			t.Errorf("rg%d starts at %d before previous end %d", g, lo, prevHi)
		}
		if hi <= lo {
			t.Errorf("rg%d empty range [%d,%d)", g, lo, hi)
		}
		prevHi = hi
	}
}

// Property: arbitrary int64 columns round-trip through every applicable
// encoding, with and without gzip, across row-group boundaries.
func TestPropertyFileRoundTrip(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	f := func(vals []int64, rgRaw uint8, gz bool) bool {
		if len(vals) == 0 {
			return true
		}
		rg := int(rgRaw)%64 + 1
		c := columnar.NewChunk(schema, len(vals))
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, vals...)
		comp := None
		if gz {
			comp = Gzip
		}
		data, err := WriteFile(schema, WriterOptions{RowGroupRows: rg, Compression: comp}, c)
		if err != nil {
			return false
		}
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Columns[0].Int64s, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: pruning never drops a row group that contains matching values.
func TestPropertyPruningSound(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	f := func(vals []int64, loRaw, hiRaw int32) bool {
		if len(vals) == 0 {
			return true
		}
		lo, hi := float64(loRaw), float64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		c := columnar.NewChunk(schema, len(vals))
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, vals...)
		data, err := WriteFile(schema, WriterOptions{RowGroupRows: 4}, c)
		if err != nil {
			return false
		}
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return false
		}
		kept := map[int]bool{}
		for _, g := range PruneRowGroups(r.Meta(), []Predicate{{Column: "v", Min: lo, Max: hi}}) {
			kept[g] = true
		}
		// Every row group containing a matching value must be kept.
		for g := range r.Meta().RowGroups {
			ch, err := r.ReadRowGroup(g, nil)
			if err != nil {
				return false
			}
			for _, x := range ch.Columns[0].Int64s {
				if float64(x) >= lo && float64(x) <= hi && !kept[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// countingReaderAt counts the ReadAt calls that reach the bytes under it.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestOpenTail: a caller that holds the file's last bytes opens it with no
// read when they hold the footer and with one read, of exactly the missing
// prefix, when they do not; either way the metadata is what OpenReader
// decodes, and none of it aliases the tail. A footer longer than FooterGuess
// is the case OpenReader itself pays the second read for.
func TestOpenTail(t *testing.T) {
	// Many small paged row groups: a footer well past the guess.
	data, err := WriteFile(testSchema(), WriterOptions{RowGroupRows: 64, PageRows: 16}, makeChunk(6000, 7))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(data))
	footerLen := int64(binary.LittleEndian.Uint32(data[size-8:]))
	if footerLen+8 <= FooterGuess {
		t.Fatalf("footer of %d bytes fits the %d-byte guess; the test needs a longer one", footerLen, FooterGuess)
	}
	ref, err := OpenReader(bytes.NewReader(data), size)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MetadataReads != 2 {
		t.Errorf("OpenReader of a long footer took %d reads, want 2", ref.MetadataReads)
	}
	want, err := ref.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		tail  int64
		reads int
	}{{8, 1}, {FooterGuess, 1}, {footerLen + 7, 1}, {footerLen + 8, 0}, {size, 0}} {
		src := &countingReaderAt{r: bytes.NewReader(data)}
		tail := bytes.Clone(data[size-tc.tail:])
		r, err := OpenTail(src, size, tail)
		if err != nil {
			t.Fatalf("tail of %d bytes: %v", tc.tail, err)
		}
		if src.reads != tc.reads || r.MetadataReads != tc.reads {
			t.Errorf("tail of %d bytes: %d reads (reader says %d), want %d", tc.tail, src.reads, r.MetadataReads, tc.reads)
		}
		for i := range tail {
			tail[i] = 0xff // the caller drops the tail: nothing may still look at it
		}
		if !reflect.DeepEqual(r.Meta(), ref.Meta()) {
			t.Errorf("tail of %d bytes: metadata differs from OpenReader's", tc.tail)
		}
		got, err := r.ReadAll()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("tail of %d bytes: rows differ from OpenReader's (%v)", tc.tail, err)
		}
	}

	for _, n := range []int64{0, 7, size + 1} {
		tail := make([]byte, n)
		copy(tail, data[max(size-n, 0):])
		if _, err := OpenTail(bytes.NewReader(data), size, tail); err == nil {
			t.Errorf("a %d-byte tail of a %d-byte file opened", n, size)
		}
	}
	if _, err := OpenTail(bytes.NewReader(data), size, nil); err == nil {
		t.Error("a nil tail — a synthetic object's — opened")
	}
}
