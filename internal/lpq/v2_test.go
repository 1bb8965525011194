package lpq

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"lambada/internal/columnar"
)

func writeRead(t *testing.T, schema *columnar.Schema, opts WriterOptions, c *columnar.Chunk) ([]byte, *Reader) {
	t.Helper()
	data, err := WriteFile(schema, opts, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return data, r
}

// TestIntExactPruning is the 2^62 regression: adjacent int64 keys up there
// are 1024 apart in float64, so the lossy MinF/MaxF mirrors collapse whole
// row groups to one float and cannot separate them. Pruning must compare
// Int64 columns through the exact MinInt/MaxInt bounds.
func TestIntExactPruning(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	const base = int64(1) << 62
	c := columnar.NewChunk(schema, 1000)
	for i := int64(0); i < 1000; i++ {
		c.Columns[0].AppendInt64(base + i)
	}
	_, r := writeRead(t, schema, WriterOptions{RowGroupRows: 100}, c)
	meta := r.Meta()

	// The float mirrors really are lossy at this magnitude: several groups
	// share one rounded float.
	st0, st1 := meta.RowGroups[0].Columns[0].Stats, meta.RowGroups[1].Columns[0].Stats
	if st0.MinF != st1.MinF {
		t.Fatalf("test premise broken: floats distinguish groups (%v vs %v)", st0.MinF, st1.MinF)
	}

	// k = base+250 lives in row group 2 only.
	target := base + 250
	p := Predicate{Column: "k", Min: float64(target), Max: float64(target),
		HasInt: true, MinInt: target, MaxInt: target}
	keep := PruneRowGroups(meta, []Predicate{p})
	if !reflect.DeepEqual(keep, []int{2}) {
		t.Errorf("int-exact pruning kept %v, want [2]", keep)
	}

	// A range straddling two groups keeps exactly those two.
	p = Predicate{Column: "k", Min: float64(base + 150), Max: float64(base + 250),
		HasInt: true, MinInt: base + 150, MaxInt: base + 250}
	if keep := PruneRowGroups(meta, []Predicate{p}); !reflect.DeepEqual(keep, []int{1, 2}) {
		t.Errorf("range pruning kept %v, want [1 2]", keep)
	}

	// Without the int bounds the float path cannot do better than the
	// rounded interval — it must still never drop group 2 (soundness).
	pf := Predicate{Column: "k", Min: float64(target), Max: float64(target)}
	kept := map[int]bool{}
	for _, g := range PruneRowGroups(meta, []Predicate{pf}) {
		kept[g] = true
	}
	if !kept[2] {
		t.Error("float-only pruning dropped the matching group")
	}
}

func TestV2PageIndex(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "price", Type: columnar.Float64},
	)
	c := columnar.NewChunk(schema, 256)
	for i := 0; i < 256; i++ {
		c.Columns[0].AppendInt64(int64(i))
		c.Columns[1].AppendFloat64(float64(i) / 2)
	}
	data, r := writeRead(t, schema, WriterOptions{RowGroupRows: 256, PageRows: 64}, c)

	if !bytes.Equal(data[len(data)-4:], Magic2[:]) {
		t.Fatalf("trailer magic = %q, want LPQ2", data[len(data)-4:])
	}
	meta := r.Meta()
	cc := &meta.RowGroups[0].Columns[0]
	if len(cc.Pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(cc.Pages))
	}
	if cc.DistinctEst != 256 {
		t.Errorf("distinct estimate = %d, want 256", cc.DistinctEst)
	}
	// Page stats cover disjoint 64-row id ranges.
	for p, pg := range cc.Pages {
		if pg.NumRows != 64 {
			t.Errorf("page %d rows = %d, want 64", p, pg.NumRows)
		}
		if !pg.Stats.HasMinMax || pg.Stats.MinInt != int64(p*64) || pg.Stats.MaxInt != int64(p*64+63) {
			t.Errorf("page %d stats = %+v", p, pg.Stats)
		}
	}
	// Page offsets tile the chunk.
	var off int64
	for p, pg := range cc.Pages {
		if pg.RelOff != off {
			t.Errorf("page %d at %d, want %d", p, pg.RelOff, off)
		}
		off += pg.CompressedLen
	}
	if off != cc.CompressedLen {
		t.Errorf("pages cover %d bytes, chunk has %d", off, cc.CompressedLen)
	}

	// Page pruning: id in [100,140] touches pages 1 and 2 only.
	preds := []Predicate{{Column: "id", Min: 100, Max: 140, HasInt: true, MinInt: 100, MaxInt: 140}}
	keep := PrunePages(meta, 0, preds)
	if !reflect.DeepEqual(keep, []bool{false, true, true, false}) {
		t.Errorf("page keep = %v, want [false true true false]", keep)
	}
	if est := EstimateRows(meta, preds); est != 128 {
		t.Errorf("EstimateRows = %d, want 128 (two 64-row pages)", est)
	}
	if est := EstimateRows(meta, nil); est != meta.TotalRows {
		t.Errorf("EstimateRows(nil) = %d, want TotalRows %d", est, meta.TotalRows)
	}

	// Full decode is unchanged by paging.
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns[0].Int64s, c.Columns[0].Int64s) ||
		!reflect.DeepEqual(got.Columns[1].Float64s, c.Columns[1].Float64s) {
		t.Error("paged file round trip mismatch")
	}

	// Pages decode independently through DecodePage.
	stored := make([]byte, cc.CompressedLen)
	if _, err := bytes.NewReader(data).ReadAt(stored, cc.Offset); err != nil {
		t.Fatal(err)
	}
	pg := cc.Pages[2]
	v, err := new(DecodeState).DecodePage(stored[pg.RelOff:pg.RelOff+pg.CompressedLen], columnar.Int64, *cc, pg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Int64s, c.Columns[0].Int64s[128:192]) {
		t.Error("DecodePage of page 2 mismatch")
	}
}

// TestFormatV1BackCompat locks the legacy layout: FormatV1 writes an LPQ1
// trailer with no page index or distinct counts, and the reader keeps
// accepting it.
func TestFormatV1BackCompat(t *testing.T) {
	c := makeChunk(500, 11)
	data, r := writeRead(t, testSchema(), WriterOptions{RowGroupRows: 100, FormatV1: true}, c)
	if !bytes.Equal(data[len(data)-4:], Magic[:]) {
		t.Fatalf("trailer magic = %q, want LPQ1", data[len(data)-4:])
	}
	for g := range r.Meta().RowGroups {
		for _, cc := range r.Meta().RowGroups[g].Columns {
			if len(cc.Pages) != 0 || cc.DistinctEst != 0 {
				t.Fatalf("v1 chunk has v2 extras: %+v", cc)
			}
		}
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns[0].Int64s, c.Columns[0].Int64s) {
		t.Error("v1 round trip mismatch")
	}
	// A v1 file is strictly smaller: same data bytes, leaner footer.
	v2, err := WriteFile(testSchema(), WriterOptions{RowGroupRows: 100}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(v2) {
		t.Errorf("v1 file %d bytes, v2 %d — v1 should be smaller", len(data), len(v2))
	}
}

// TestSmallChunksStayUnpaged: row groups of at most PageRows keep the v1
// single-blob chunk layout inside a v2 footer.
func TestSmallChunksStayUnpaged(t *testing.T) {
	c := makeChunk(100, 5)
	_, r := writeRead(t, testSchema(), WriterOptions{RowGroupRows: 100, PageRows: 128}, c)
	cc := &r.Meta().RowGroups[0].Columns[0]
	if len(cc.Pages) != 0 {
		t.Errorf("small chunk paged into %d pages", len(cc.Pages))
	}
	if cc.DistinctEst != 100 {
		t.Errorf("distinct estimate = %d, want 100", cc.DistinctEst)
	}
	spans := cc.PageSpans(100)
	if len(spans) != 1 || spans[0].NumRows != 100 || spans[0].CompressedLen != cc.CompressedLen {
		t.Errorf("synthesized span = %+v", spans)
	}
}

// Property: v2 paged files round-trip byte-identically across random
// values, page sizes, forced encodings and gzip.
func TestPropertyV2PagedRoundTrip(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	encs := []Encoding{Plain, RLE, Delta, Dict}
	f := func(vals []int64, pageRaw, rgRaw, encRaw uint8, gz bool) bool {
		if len(vals) == 0 {
			return true
		}
		pageRows := int(pageRaw)%16 + 1
		rg := int(rgRaw)%96 + 1
		c := columnar.NewChunk(schema, len(vals))
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, vals...)
		opts := WriterOptions{
			RowGroupRows:  rg,
			PageRows:      pageRows,
			ForceEncoding: map[int]Encoding{0: encs[int(encRaw)%len(encs)]},
		}
		if gz {
			opts.Compression = Gzip
		}
		data, err := WriteFile(schema, opts, c)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: page pruning never drops a page holding a matching value, and
// EstimateRows never under-counts the matching rows.
func TestPropertyPagePruningSound(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	f := func(vals []int64, loRaw, hiRaw int32) bool {
		if len(vals) == 0 {
			return true
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		c := columnar.NewChunk(schema, len(vals))
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, vals...)
		data, err := WriteFile(schema, WriterOptions{RowGroupRows: 16, PageRows: 4}, c)
		if err != nil {
			return false
		}
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return false
		}
		meta := r.Meta()
		preds := []Predicate{{Column: "v", Min: float64(lo), Max: float64(hi),
			HasInt: true, MinInt: lo, MaxInt: hi}}
		var matching int64
		for g := range meta.RowGroups {
			keep := PrunePages(meta, g, preds)
			ch, err := r.ReadRowGroup(g, nil)
			if err != nil {
				return false
			}
			pages := meta.RowGroups[g].Columns[0].PageSpans(meta.RowGroups[g].NumRows)
			row := 0
			for p, pg := range pages {
				for i := 0; i < int(pg.NumRows); i++ {
					x := ch.Columns[0].Int64s[row]
					row++
					if x >= lo && x <= hi {
						matching++
						if p < len(keep) && !keep[p] {
							return false // matching value in a pruned page
						}
					}
				}
			}
		}
		return EstimateRows(meta, preds) >= matching
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Pages must stay self-contained under Delta: the first value of every
// page is absolute, so a page decodes without its predecessors.
func TestDeltaPagesSelfContained(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 32)
	for i := 0; i < 32; i++ {
		c.Columns[0].AppendInt64(int64(1000 + i*3))
	}
	data, r := writeRead(t, schema, WriterOptions{RowGroupRows: 32, PageRows: 8,
		ForceEncoding: map[int]Encoding{0: Delta}}, c)
	cc := r.Meta().RowGroups[0].Columns[0]
	if len(cc.Pages) != 4 || cc.Encoding != Delta {
		t.Fatalf("chunk = %+v", cc)
	}
	stored := make([]byte, cc.CompressedLen)
	if _, err := bytes.NewReader(data).ReadAt(stored, cc.Offset); err != nil {
		t.Fatal(err)
	}
	pg := cc.Pages[3] // decode the last page alone
	v, err := new(DecodeState).DecodePage(stored[pg.RelOff:pg.RelOff+pg.CompressedLen], columnar.Int64, cc, pg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Int64s, c.Columns[0].Int64s[24:32]) {
		t.Errorf("page 3 alone = %v, want %v", v.Int64s, c.Columns[0].Int64s[24:32])
	}
}

func TestAdmitsMissingStats(t *testing.T) {
	p := Predicate{Column: "x", Min: 0, Max: 1, HasInt: true, MinInt: 0, MaxInt: 1}
	if !p.Admits(Stats{}, columnar.Int64) {
		t.Error("missing stats must admit")
	}
	st := Stats{HasMinMax: true, MinInt: 5, MaxInt: 9, MinF: 5, MaxF: 9}
	if p.Admits(st, columnar.Int64) {
		t.Error("disjoint int interval admitted")
	}
	// Float columns use the float interval even when the literal was int.
	if p.Admits(Stats{HasMinMax: true, MinF: 5, MaxF: 9, MinInt: math.MinInt64, MaxInt: math.MaxInt64}, columnar.Float64) {
		t.Error("disjoint float interval admitted")
	}
}

// TestNullCountFooterRoundTrip: v2 footers carry per-chunk null counts
// losslessly; v1 footers have no slot for them and decode to zero.
func TestNullCountFooterRoundTrip(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.Int64},
		columnar.Field{Name: "b", Type: columnar.Float64},
	)
	m := &FileMeta{Schema: schema, TotalRows: 300, RowGroups: []RowGroupMeta{
		{NumRows: 200, Columns: []ColumnChunkMeta{
			{CompressedLen: 10, UncompressedLen: 10, DistinctEst: 7},
			{Offset: 10, CompressedLen: 20, UncompressedLen: 20, DistinctEst: 3, NullCount: 123},
		}},
		{NumRows: 100, Columns: []ColumnChunkMeta{
			{Offset: 30, CompressedLen: 5, UncompressedLen: 5, NullCount: 100},
			{Offset: 35, CompressedLen: 5, UncompressedLen: 5, NullCount: 1},
		}},
	}}
	got, err := decodeFooter(appendFooter(nil, m, true), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("v2 footer round trip:\n got %+v\nwant %+v", got, m)
	}
	got1, err := decodeFooter(appendFooter(nil, m, false), false)
	if err != nil {
		t.Fatal(err)
	}
	for g := range got1.RowGroups {
		for c, cc := range got1.RowGroups[g].Columns {
			if cc.NullCount != 0 {
				t.Errorf("v1 chunk [%d][%d] decoded NullCount %d, want 0", g, c, cc.NullCount)
			}
		}
	}
}

// TestNullCountPruning: an all-null predicate column prunes its row group
// even when its min/max bounds admit, and partial null counts cap the row
// estimate of surviving groups. The writer itself always records zero
// nulls (the columnar layer cannot represent them), so the counts are
// planted on the decoded footer the way a null-bearing producer would
// write them.
func TestNullCountPruning(t *testing.T) {
	c := makeChunk(300, 7)
	_, r := writeRead(t, testSchema(), WriterOptions{RowGroupRows: 100}, c)
	meta := r.Meta()
	ci := meta.Schema.Index("id")
	for g := range meta.RowGroups {
		for _, cc := range meta.RowGroups[g].Columns {
			if cc.NullCount != 0 {
				t.Fatalf("writer emitted NullCount %d, want 0", cc.NullCount)
			}
		}
	}

	// A predicate matching every group's id range keeps all three groups.
	wide := []Predicate{{Column: "id", Min: 0, Max: 1e9, HasInt: true, MinInt: 0, MaxInt: 1e9}}
	if keep := PruneRowGroups(meta, wide); len(keep) != 3 {
		t.Fatalf("premise: wide predicate kept %v, want all 3 groups", keep)
	}
	base := EstimateRows(meta, wide)
	if base != meta.TotalRows {
		t.Fatalf("premise: wide estimate %d, want %d", base, meta.TotalRows)
	}

	// Group 1 entirely null on id: pruned despite admitting bounds.
	meta.RowGroups[1].Columns[ci].NullCount = meta.RowGroups[1].NumRows
	if keep := PruneRowGroups(meta, wide); !reflect.DeepEqual(keep, []int{0, 2}) {
		t.Errorf("all-null group kept: %v, want [0 2]", keep)
	}
	// Group 2 partially null: its contribution shrinks by the null count.
	meta.RowGroups[2].Columns[ci].NullCount = 40
	want := meta.TotalRows - meta.RowGroups[1].NumRows - 40
	if est := EstimateRows(meta, wide); est != want {
		t.Errorf("EstimateRows = %d, want %d (all-null group dropped, 40 nulls capped)", est, want)
	}
	// A predicate on a different column ignores id's null counts.
	if keep := PruneRowGroups(meta, []Predicate{{Column: "zzz", Min: 0, Max: 0}}); len(keep) != 3 {
		t.Errorf("unrelated predicate pruned by null counts: kept %v", keep)
	}
}
