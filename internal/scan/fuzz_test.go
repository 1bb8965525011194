package scan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/s3fs"
)

// fuzzDecodeValues is the decoded size up to which FuzzScanFiltered scans
// and reads a file, as lpq's FuzzOpenReadAll does: past it a small input is a
// bomb or a legitimately dense file, and no reader can tell which.
const fuzzDecodeValues = 1 << 20

// fuzzSeeds are lpq's fuzz seeds — a plain file, gzip with small row groups,
// and a paged file, over a chunk with a column for every encoding the writer
// chooses — and the misaligned file.
func fuzzSeeds(t testing.TB) [][]byte {
	const n = 96
	rng := rand.New(rand.NewSource(5))
	c := columnar.NewChunk(columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "status", Type: columnar.Int64},
		columnar.Field{Name: "day", Type: columnar.Int64},
		columnar.Field{Name: "tax", Type: columnar.Float64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	), n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(1000 + 3*i))
		c.Columns[1].AppendInt64(int64(rng.Intn(4)) * 1_000_003)
		c.Columns[2].AppendInt64(int64(i / 24))
		c.Columns[3].AppendFloat64(float64(rng.Intn(5)) / 100)
		c.Columns[4].AppendFloat64(rng.Float64() * 1e4)
		c.Columns[5].AppendBool(i%32 < 24)
	}
	var seeds [][]byte
	for _, opts := range []lpq.WriterOptions{
		{},
		{Compression: lpq.Gzip, RowGroupRows: 32},
		{RowGroupRows: 64, PageRows: 16},
	} {
		blob, err := lpq.WriteFile(c.Schema, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return append(seeds, misalignedFile())
}

// misalignedFile is a one-row-group file of Int64 columns a and b, both
// 0..9 in Plain encoding, whose page indexes tile the group differently: a
// in pages of 5+5 rows, b of 9+1. Each index is valid on its own; the writer
// never pages one group two ways.
func misalignedFile() []byte {
	var data []byte
	for range 2 {
		for v := range 10 {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
	}
	uv := binary.AppendUvarint
	footer := uv(nil, 2) // fields
	for _, name := range []string{"a", "b"} {
		footer = append(uv(footer, 1), name[0], byte(columnar.Int64))
	}
	footer = uv(uv(footer, 1), 10) // one row group of 10 rows
	for col, pageRows := range []uint64{5, 9} {
		// Offset, stored and raw length, Plain, no compression, no
		// stats, 10 distinct values, no nulls.
		footer = uv(uv(uv(footer, uint64(80*col)), 80), 80)
		footer = append(footer, byte(lpq.Plain), byte(lpq.None), 0)
		footer = uv(uv(footer, 10), 0)
		// Page index: two pages of pageRows rows, the last holding the
		// rest, 8 bytes a row; no page stats.
		footer = uv(uv(footer, 2), pageRows)
		for _, rows := range []uint64{pageRows, 10 - pageRows} {
			footer = uv(uv(footer, 8*rows), 8*rows)
		}
		footer = append(footer, 0)
	}
	footer = uv(footer, 10) // total rows
	data = append(data, footer...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(footer)))
	return append(data, "LPQ2"...)
}

// TestScanRefusesMisalignedPages: a row group whose columns are paged at
// different rows is refused when the file is opened. The scan filters page
// slot i of the filter column and gathers slot i of the payload by that
// selection, so a b-page of nine rows used to select row 7 of an a-page of
// five, and the worker panicked.
func TestScanRefusesMisalignedPages(t *testing.T) {
	data := misalignedFile()
	if _, err := lpq.OpenReader(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Error("lpq.OpenReader accepted a row group paged two ways")
	}
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	if err := svc.Put(simenv.NewImmediate(), "data", "m.lpq", data); err != nil {
		t.Fatal(err)
	}
	src := New(newClient(svc), DefaultConfig(), FileRef{Bucket: "data", Key: "m.lpq"})
	filter := engine.NewBin(engine.OpGE, engine.Col("b"), engine.ConstInt(7))
	err := src.ScanFiltered([]string{"a", "b"}, nil, filter, func(*columnar.Chunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "paged") {
		t.Errorf("ScanFiltered of a misaligned file: err = %v, want the footer refused", err)
	}
}

// FuzzScanFiltered: scanning arbitrary bytes as two lpq objects, with a
// filter on one column pushed down as a prune predicate, returns a typed
// error or rows that a full read (OpenReader + ReadAll) of each and the same
// filter also yield — a sub-multiset, since footer statistics that lie may
// prune rows that pass — and never panics. The two files' row groups share
// request windows; what the scan bills is still, row group by row group, the
// GETs and bytes s3fs.PlanSpans plans for that group alone.
func FuzzScanFiltered(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, uint8(i), int16(1100))
	}
	f.Fuzz(checkScanFiltered)
}

func checkScanFiltered(t *testing.T, data []byte, col uint8, k int16) {
	r, openErr := lpq.OpenReader(bytes.NewReader(data), int64(len(data)))
	if openErr == nil && r.Meta().TotalRows > fuzzDecodeValues/int64(r.Schema().Len()) {
		return
	}
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	refs := []FileRef{{Bucket: "data", Key: "f0.lpq"}, {Bucket: "data", Key: "f1.lpq"}}
	for _, ref := range refs {
		if err := svc.Put(simenv.NewImmediate(), ref.Bucket, ref.Key, data); err != nil {
			t.Fatal(err)
		}
	}
	src := New(newClient(svc), DefaultConfig(), refs...)
	_ = OpenAll(src)
	opened := src.Stats()

	// The filter: column col >= k (k/100 on a Float64 column), and the
	// predicate the optimizer would push down for it; none on a Bool column.
	var filter engine.Expr
	var preds []lpq.Predicate
	if openErr == nil {
		fl := r.Schema().Fields[int(col)%r.Schema().Len()]
		switch fl.Type {
		case columnar.Int64:
			filter = engine.NewBin(engine.OpGE, engine.Col(fl.Name), engine.ConstInt(int64(k)))
			preds = []lpq.Predicate{{Column: fl.Name, Min: float64(k), Max: math.Inf(1),
				HasInt: true, MinInt: int64(k), MaxInt: math.MaxInt64}}
		case columnar.Float64:
			filter = engine.NewBin(engine.OpGE, engine.Col(fl.Name), engine.ConstFloat(float64(k)/100))
			preds = []lpq.Predicate{{Column: fl.Name, Min: float64(k) / 100, Max: math.Inf(1)}}
		}
	}
	var got []*columnar.Chunk
	err := src.ScanFiltered(nil, preds, filter, func(c *columnar.Chunk) error {
		got = append(got, c)
		return nil
	})
	if err != nil {
		if msg := err.Error(); !strings.HasPrefix(msg, "scan: ") && !strings.HasPrefix(msg, "lpq: ") {
			t.Errorf("untyped error: %v", err)
		}
		return
	}
	if openErr != nil {
		t.Fatalf("scan read a file lpq.OpenReader refuses (%v)", openErr)
	}
	all, err := r.ReadAll()
	if err != nil {
		return // a page the scan pruned or never decoded is corrupt
	}
	if filter != nil {
		sel, err := engine.FilterSelection(all, filter, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = all.Gather(sel)
	}
	want := map[string]int{}
	for i := range all.NumRows() {
		want[rowKey(all, i)] += len(refs)
	}
	for _, c := range got {
		if err := c.Validate(); err != nil {
			t.Fatalf("scanned chunk invalid: %v", err)
		}
		for i := range c.NumRows() {
			key := rowKey(c, i)
			if want[key] == 0 {
				t.Fatalf("scan yielded row %q the full read does not", key)
			}
			want[key]--
		}
	}
	st := src.Stats()
	if gets, bytes, ok := plannedSpans(t, svc, refs, preds, filter); ok &&
		(st.BilledGets-opened.BilledGets != gets || st.BilledBytes-opened.BilledBytes != bytes) {
		t.Errorf("scan billed %d GETs, %d bytes past its opens; its row groups' own spans are %d, %d",
			st.BilledGets-opened.BilledGets, st.BilledBytes-opened.BilledBytes, gets, bytes)
	}
}

// plannedSpans sums, over every row group of refs a filtered scan keeps, the
// GETs and bytes s3fs.PlanSpans plans for that group's first window alone.
// !ok: some group's payload waits for a second window, which the filter's
// results size.
func plannedSpans(t *testing.T, svc *s3.Service, refs []FileRef, preds []lpq.Predicate, filter engine.Expr) (gets, bytes int64, ok bool) {
	probe := New(newClient(svc), DefaultConfig(), refs...)
	for _, f := range refs {
		meta, h, err := probe.open(f)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := resolveProjection(meta.Schema, nil, filter)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range lpq.PruneRowGroups(meta, preds) {
			r, err := probe.plan(f, h, meta, g, pr, preds)
			if err != nil {
				t.Fatal(err) // the probe has no bound to refuse a group at
			}
			if r == nil {
				continue
			}
			if r.keep != nil && !r.early {
				return 0, 0, false
			}
			for _, s := range s3fs.PlanSpans(r.first, s3fs.DefaultCoalesceGap) {
				gets, bytes = gets+1, bytes+s.Len
			}
		}
	}
	return gets, bytes, true
}

// rowKey spells row i of c by its values' bits, so NaNs match.
func rowKey(c *columnar.Chunk, i int) string {
	var b strings.Builder
	for _, v := range c.Columns {
		switch v.Type {
		case columnar.Int64:
			fmt.Fprintf(&b, "%d,", v.Int64s[i])
		case columnar.Float64:
			fmt.Fprintf(&b, "%x,", math.Float64bits(v.Float64s[i]))
		default:
			fmt.Fprintf(&b, "%t,", v.Bools[i])
		}
	}
	return b.String()
}
