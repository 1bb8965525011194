package scan

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// collectScan runs one scan and returns the yielded chunks in order.
func collectScan(t *testing.T, src *Source, proj []string, preds []lpq.Predicate) []*columnar.Chunk {
	t.Helper()
	var out []*columnar.Chunk
	if err := src.Scan(proj, preds, func(c *columnar.Chunk) error {
		out = append(out, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func chunksIdentical(t *testing.T, got, want []*columnar.Chunk) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("chunks = %d, want %d", len(got), len(want))
	}
	for ci := range want {
		g, w := got[ci], want[ci]
		if g.NumRows() != w.NumRows() || !g.Schema.Equal(w.Schema) {
			t.Fatalf("chunk %d shape mismatch", ci)
		}
		for j := range w.Columns {
			for i := 0; i < w.NumRows(); i++ {
				switch w.Columns[j].Type {
				case columnar.Int64:
					if g.Columns[j].Int64s[i] != w.Columns[j].Int64s[i] {
						t.Fatalf("chunk %d col %d row %d differs", ci, j, i)
					}
				case columnar.Float64:
					if math.Float64bits(g.Columns[j].Float64s[i]) != math.Float64bits(w.Columns[j].Float64s[i]) {
						t.Fatalf("chunk %d col %d row %d differs", ci, j, i)
					}
				case columnar.Bool:
					if g.Columns[j].Bools[i] != w.Columns[j].Bools[i] {
						t.Fatalf("chunk %d col %d row %d differs", ci, j, i)
					}
				}
			}
		}
	}
}

// fileOrder is what a scan of the files written from parts, groupRows rows
// per row group, must yield, worked out from the parts themselves: every kept
// group of every part, parts in file order and groups in order within each,
// projected to proj (nil: every column).
func fileOrder(t *testing.T, parts []*columnar.Chunk, groupRows int, proj []string, kept func(*columnar.Chunk) bool) []*columnar.Chunk {
	t.Helper()
	var out []*columnar.Chunk
	for _, part := range parts {
		for lo := 0; lo < part.NumRows(); lo += groupRows {
			g := part.Slice(lo, min(lo+groupRows, part.NumRows()))
			if kept != nil && !kept(g) {
				continue
			}
			if proj != nil {
				var err error
				if g, err = g.Project(proj...); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, g)
		}
	}
	return out
}

// TestParallelScanMatchesSerialByteIdentical: a scan over eight files yields
// the rows the files were written from, byte for byte, in file order — with
// every column, and projected under a predicate that prunes row groups.
func TestParallelScanMatchesSerialByteIdentical(t *testing.T) {
	for _, comp := range []lpq.Compression{lpq.None, lpq.Gzip} {
		svc := s3.New(s3.Config{})
		refs, data := uploadLineitem(t, svc, 0.005, 8, comp)
		parts := data.Split(8)

		src := New(newClient(svc), DefaultConfig(), refs...)
		want := fileOrder(t, parts, 2000, nil, nil)
		chunksIdentical(t, collectScan(t, src, nil, nil), want)
		if st := src.Stats(); st.RowGroupsRead != int64(len(want)) || st.RowGroupsPruned != 0 {
			t.Errorf("%v: read %d row groups, pruned %d; want %d, 0", comp, st.RowGroupsRead, st.RowGroupsPruned, len(want))
		}

		// Projection + pruning: shipdate is sorted, so a year's range keeps a
		// run of groups; a kept group comes whole, unfiltered.
		lo, hi := tpch.Q6ShipDateLo, tpch.Q6ShipDateHi-1
		preds := []lpq.Predicate{{Column: "l_shipdate", Min: float64(lo), Max: float64(hi)}}
		proj := []string{"l_quantity", "l_extendedprice"}
		src = New(newClient(svc), DefaultConfig(), refs...)
		want = fileOrder(t, parts, 2000, proj, func(g *columnar.Chunk) bool {
			d := g.Column("l_shipdate").Int64s
			return slices.Min(d) <= hi && slices.Max(d) >= lo
		})
		chunksIdentical(t, collectScan(t, src, proj, preds), want)
		st := src.Stats()
		if st.RowGroupsPruned == 0 {
			t.Errorf("%v: no row group pruned — the predicate has no teeth", comp)
		}
		if st.RowGroupsRead != int64(len(want)) {
			t.Errorf("%v: read %d row groups, want %d", comp, st.RowGroupsRead, len(want))
		}
	}
}

// TestParallelScanMoreFilesThanSlots: twelve files of about ten row groups
// each yield every group of every file in file order.
func TestParallelScanMoreFilesThanSlots(t *testing.T) {
	svc := s3.New(s3.Config{})
	env := simenv.NewImmediate()
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.01, Seed: 5}.Generate()
	var refs []FileRef
	parts := data.Split(12)
	for i, part := range parts {
		// ~500-row groups → ~10 chunks per file.
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 500}, part)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("li/p-%02d.lpq", i)
		if err := svc.Put(env, "data", key, raw); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, FileRef{Bucket: "data", Key: key})
	}
	got := collectScan(t, New(newClient(svc), DefaultConfig(), refs...), nil, nil)
	chunksIdentical(t, got, fileOrder(t, parts, 500, nil, nil))
}

// TestParallelScanErrorPropagation: the files ahead of a missing one are
// yielded before the missing one fails the scan, and a yield error ends the
// scan and comes back as it was returned.
func TestParallelScanErrorPropagation(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.002, 4, lpq.None)
	refs = append(refs, FileRef{Bucket: "data", Key: "missing.lpq"})
	src := New(newClient(svc), DefaultConfig(), refs...)
	n := 0
	err := src.Scan(nil, nil, func(c *columnar.Chunk) error { n += c.NumRows(); return nil })
	if err == nil {
		t.Fatal("missing file scanned without error")
	}
	if n == 0 {
		t.Error("chunks of earlier files should have been yielded before the failing file")
	}

	src2 := New(newClient(svc), DefaultConfig(), refs[:4]...)
	calls := 0
	err = src2.Scan(nil, nil, func(*columnar.Chunk) error {
		calls++
		if calls == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("yield error = %v, want errStop", err)
	}
	if calls != 2 {
		t.Errorf("%d yields, want the scan to stop at the failing second", calls)
	}
}

// TestScanSpawnsNoGoroutines: a scan of several files of several row groups
// each, under the default configuration and with CPUs to spare, runs on its
// caller's goroutine — the count seen at every yield is the count before it.
func TestScanSpawnsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.005, 4, lpq.None)
	src := New(newClient(svc), DefaultConfig(), refs...)
	before := runtime.NumGoroutine()
	yields := 0
	err := src.Scan(nil, nil, func(*columnar.Chunk) error {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%d goroutines at yield %d, %d before the scan", n, yields, before)
		}
		yields++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if read := src.Stats().RowGroupsRead; yields < 2*len(refs) || read != int64(yields) {
		t.Errorf("%d yields, %d row groups read over %d files: want several row groups per file, each yielded", yields, read, len(refs))
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestOpenSingleflight(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs, _ := uploadLineitem(t, svc, 0.001, 3, lpq.None)
	src := New(newClient(svc), DefaultConfig(), refs...)

	// Ask for the footers again and again: each file is opened once. One open
	// costs exactly one read request — the suffix read that returns the size
	// with the footer; it was two, a HEAD and the footer fetch.
	for i := 0; i < 3; i++ {
		if _, err := src.Schema(); err != nil {
			t.Fatal(err)
		}
		if err := OpenAll(src); err != nil {
			t.Fatal(err)
		}
	}
	if got := meter.Count(pricing.LabelS3Read); got != int64(len(refs)) {
		t.Errorf("open requests = %d, want exactly %d, one per file", got, len(refs))
	}
	for i := 0; i < 2; i++ {
		collectScan(t, src, []string{"l_quantity"}, nil)
	}
	if src.openGets != int64(len(refs)) || len(src.handles) != len(refs) {
		t.Errorf("after two scans: %d open requests, %d handles, want %d of each", src.openGets, len(src.handles), len(refs))
	}

	// A failed open is forgotten so a later caller can retry.
	bad := New(newClient(svc), DefaultConfig(), FileRef{Bucket: "data", Key: "nope.lpq"})
	if _, err := bad.Schema(); err == nil {
		t.Fatal("expected error for missing file")
	}
	data := tpch.Gen{SF: 0.0005, Seed: 3}.Generate()
	raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Put(simenv.NewImmediate(), "data", "nope.lpq", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Schema(); err != nil {
		t.Errorf("retry after failed open: %v", err)
	}
}
