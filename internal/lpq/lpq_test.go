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
		data, err := appendEncoded(nil, tc.v, tc.enc, new(valueSet), false)
		if err != nil {
			t.Errorf("%v/%v encode: %v", tc.v.Type, tc.enc, err)
			continue
		}
		got := columnar.NewVector(tc.v.Type, tc.v.Len())
		if err := decodeOnto(got, data, tc.enc, tc.v.Len(), new(dictScratch)); err != nil {
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
	if _, err := appendEncoded(nil, floats, Delta, new(valueSet), false); err == nil {
		t.Error("delta on float64 accepted")
	}
	if _, err := appendEncoded(nil, floats, RLE, new(valueSet), false); err == nil {
		t.Error("RLE on float64 accepted")
	}
	bools := columnar.NewVector(columnar.Bool, 0)
	bools.AppendBool(true)
	if _, err := appendEncoded(nil, bools, Dict, new(valueSet), false); err == nil {
		t.Error("dict on bool accepted")
	}
}

func TestCorruptDataErrors(t *testing.T) {
	v := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 10; i++ {
		v.AppendInt64(int64(i * 1000))
	}
	for _, enc := range []Encoding{Plain, RLE, Delta, Dict} {
		data, err := appendEncoded(nil, v, enc, new(valueSet), false)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 {
			continue
		}
		if err := decodeOnto(columnar.NewVector(columnar.Int64, 10), data[:len(data)/2], enc, 10, new(dictScratch)); err == nil {
			t.Errorf("%v: decoding truncated data succeeded", enc)
		}
	}
}

func TestChooseEncodingHeuristics(t *testing.T) {
	choose := func(v *columnar.Vector) Encoding {
		p := new(valueSet).profile(v)
		return p.choose(v.Type, v.Len())
	}
	sorted := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 1000; i++ {
		sorted.AppendInt64(int64(i * 3))
	}
	if e := choose(sorted); e != Delta {
		t.Errorf("sorted ints → %v, want DELTA", e)
	}
	runs := columnar.NewVector(columnar.Int64, 0)
	for i := 0; i < 1000; i++ {
		runs.AppendInt64(int64(i / 100))
	}
	if e := choose(runs); e != RLE {
		t.Errorf("runny ints → %v, want RLE", e)
	}
	lowCard := columnar.NewVector(columnar.Int64, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		lowCard.AppendInt64(int64(rng.Intn(7)) * 1000000)
	}
	if e := choose(lowCard); e != Dict {
		t.Errorf("low-cardinality ints → %v, want DICT", e)
	}
	random := columnar.NewVector(columnar.Float64, 0)
	for i := 0; i < 1000; i++ {
		random.AppendFloat64(rng.Float64())
	}
	if e := choose(random); e != Plain {
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
	plain, err := WriteFile(testSchema(), WriterOptions{forceEncoding: map[int]Encoding{0: Plain, 1: Plain, 2: Plain}}, c)
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := WriteFile(testSchema(), WriterOptions{Compression: Gzip, forceEncoding: map[int]Encoding{0: Plain, 1: Plain, 2: Plain}}, c)
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
	copy(bad[96:], Magic2[:])
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
	// Unknown columns keep everything.
	if keep := PruneRowGroups(meta, []Predicate{{Column: "zzz", Min: 0, Max: 0}}); len(keep) != 10 {
		t.Errorf("unknown column pruned to %d groups", len(keep))
	}
}

// TestDisableStats: every column chunk and page of a numeric column is
// written with min/max statistics — there is no writer option to omit them —
// and a NaN, wherever it stands, stays out of the bounds: a NaN bound admits
// no predicate, so a chunk or page starting with NaN used to be pruned with
// its matching rows. An all-NaN page has no bounds and is never pruned.
func TestDisableStats(t *testing.T) {
	chunk := makeChunk(100, 7)
	data, err := WriteFile(testSchema(), WriterOptions{}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for c, cc := range r.Meta().RowGroups[0].Columns[:2] {
		if !cc.Stats.HasMinMax {
			t.Errorf("column %d written without stats", c)
		}
	}

	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Float64})
	nan := math.NaN()
	xs := columnar.NewChunk(schema, 0)
	for _, x := range []float64{nan, 0.05, 0.06, nan, 0.01, 0.02, nan, nan, nan, 0.9} {
		xs.Columns[0].AppendFloat64(x)
	}
	// bounds returns the stats rows [lo, hi) of xs must have.
	bounds := func(lo, hi int64) Stats {
		var st Stats
		for _, x := range xs.Columns[0].Float64s[lo:hi] {
			switch {
			case x != x:
			case !st.HasMinMax:
				st = Stats{HasMinMax: true, MinF: x, MaxF: x}
			default:
				st.MinF, st.MaxF = min(st.MinF, x), max(st.MaxF, x)
			}
		}
		st.MinInt, st.MaxInt = int64(st.MinF), int64(st.MaxF)
		return st
	}
	// Row groups of three rows — the third all NaN — and of five in pages of
	// two, where the first page is [NaN 0.05].
	for _, opts := range []WriterOptions{{RowGroupRows: 3}, {RowGroupRows: 5, PageRows: 2}} {
		_, r := writeRead(t, schema, opts, xs)
		meta := r.Meta()
		var start int64
		for g, rg := range meta.RowGroups {
			cc := rg.Columns[0]
			if want := bounds(start, start+rg.NumRows); cc.Stats != want {
				t.Errorf("%+v: group %d stats %+v, want %+v", opts, g, cc.Stats, want)
			}
			// A page without bounds means the chunk's pages dropped theirs
			// (pageStatsUseful); the ones kept hold no NaN.
			row := start
			for p, pg := range cc.Pages {
				if want := bounds(row, row+pg.NumRows); pg.Stats.HasMinMax && pg.Stats != want {
					t.Errorf("%+v: group %d page %d stats %+v, want %+v", opts, g, p, pg.Stats, want)
				}
				row += pg.NumRows
			}
			start += rg.NumRows
		}
		pred := []Predicate{{Column: "x", Min: 0.05, Max: math.Inf(1)}}
		if keep := PruneRowGroups(meta, pred); len(keep) == 0 || keep[0] != 0 {
			t.Errorf("%+v: x >= 0.05 keeps groups %v, want group 0 among them", opts, keep)
		}
		if keep := PrunePages(meta, 0, pred); !keep[0] {
			t.Errorf("%+v: x >= 0.05 prunes the first page of [NaN 0.05 ...]", opts)
		}
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
		all, err := r.ReadAll()
		if err != nil {
			return false
		}
		row := 0
		for g, rg := range r.Meta().RowGroups {
			for _, x := range all.Columns[0].Int64s[row : row+int(rg.NumRows)] {
				if float64(x) >= lo && float64(x) <= hi && !kept[g] {
					return false
				}
			}
			row += int(rg.NumRows)
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
// decodes, none of it aliases the tail, and Trailer is the file's last
// footerLen+8 bytes. Without a reader the exact trailer opens and a shorter
// tail is refused. A footer longer than FooterGuess is the case OpenReader
// itself pays the second read for.
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
		if !bytes.Equal(r.Trailer(), data[size-footerLen-8:]) {
			t.Errorf("tail of %d bytes: a %d-byte trailer, want the file's last %d bytes", tc.tail, len(r.Trailer()), footerLen+8)
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
	if r, err := OpenTail(nil, size, data[size-footerLen-8:]); err != nil || !reflect.DeepEqual(r.Meta(), ref.Meta()) {
		t.Errorf("the exact trailer without a reader: %v", err)
	}
	if _, err := OpenTail(nil, size, data[size-footerLen-7:]); err == nil {
		t.Error("a tail one byte short of the footer opened without a reader")
	}
}
