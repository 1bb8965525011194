package scan

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// uploadLineitemOpts is uploadLineitem with writer control, for producing
// paged v2 files (PageRows below the row-group size) or legacy v1 files.
func uploadLineitemOpts(t *testing.T, svc *s3.Service, sf float64, nfiles int, opts lpq.WriterOptions) ([]FileRef, *columnar.Chunk) {
	t.Helper()
	env := simenv.NewImmediate()
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: sf, Seed: 9}.Generate()
	var refs []FileRef
	for i, part := range tpch.SplitFiles(data, nfiles) {
		raw, err := lpq.WriteFile(tpch.Schema(), opts, part)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("lineitem/part-%03d.lpq", i)
		if err := svc.Put(env, "data", key, raw); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, FileRef{Bucket: "data", Key: key})
	}
	return refs, data
}

func q6Filter() engine.Expr {
	return engine.And(
		engine.NewBin(engine.OpGE, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateLo)),
		engine.NewBin(engine.OpLT, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateHi)),
		engine.Between(engine.Col("l_discount"), engine.ConstFloat(0.0499999), engine.ConstFloat(0.0700001)),
		engine.NewBin(engine.OpLT, engine.Col("l_quantity"), engine.ConstFloat(24)),
	)
}

func q6Preds() []lpq.Predicate {
	return []lpq.Predicate{{
		Column: "l_shipdate",
		Min:    float64(tpch.Q6ShipDateLo), Max: float64(tpch.Q6ShipDateHi - 1),
		HasInt: true, MinInt: tpch.Q6ShipDateLo, MaxInt: tpch.Q6ShipDateHi - 1,
	}}
}

// collectRows concatenates yielded chunks into one chunk, preserving order.
func collectRows(t *testing.T, schema *columnar.Schema, scan func(func(*columnar.Chunk) error) error) *columnar.Chunk {
	t.Helper()
	out := columnar.NewChunk(schema, 0)
	err := scan(func(c *columnar.Chunk) error {
		for i := range out.Columns {
			out.Columns[i].AppendVector(c.Columns[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireIdentical compares two chunks bit for bit (floats included — the
// scan layer must not perturb values, only select rows).
func requireIdentical(t *testing.T, label string, got, want *columnar.Chunk) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.NumRows())
	}
	for i, v := range got.Columns {
		w := want.Columns[i]
		same := false
		switch v.Type {
		case columnar.Int64:
			same = reflect.DeepEqual(v.Int64s, w.Int64s)
		case columnar.Float64:
			same = reflect.DeepEqual(v.Float64s, w.Float64s)
		case columnar.Bool:
			same = reflect.DeepEqual(v.Bools, w.Bools)
		}
		if !same {
			t.Fatalf("%s: column %d differs", label, i)
		}
	}
}

// referenceFiltered runs the plain scan and filters each chunk in the
// caller — the pre-late-materialization pipeline shape — as the ground
// truth for every ScanFiltered configuration.
func referenceFiltered(t *testing.T, src *Source, proj []string, filter engine.Expr) *columnar.Chunk {
	t.Helper()
	schema := mustSchema(t, src, proj)
	var sel []int
	return collectRows(t, schema, func(yield func(*columnar.Chunk) error) error {
		return src.Scan(proj, nil, func(c *columnar.Chunk) error {
			var err error
			sel, err = engine.FilterSelection(c, filter, sel)
			if err != nil {
				return err
			}
			if len(sel) == 0 {
				return nil
			}
			if len(sel) == c.NumRows() {
				return yield(c)
			}
			return yield(c.Gather(sel))
		})
	})
}

func mustSchema(t *testing.T, src *Source, proj []string) *columnar.Schema {
	t.Helper()
	full, err := src.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if proj == nil {
		return full
	}
	s, err := full.Project(proj...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanFilteredByteIdentity: every ScanFiltered configuration — paged
// and unpaged files, gzip and raw, late-materialized and ablated,
// coalesced and per-range reads, parallel and serial — returns rows byte-
// identical to scan-then-filter.
func TestScanFilteredByteIdentity(t *testing.T) {
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_returnflag"}
	for _, w := range []struct {
		name string
		opts lpq.WriterOptions
	}{
		{"paged", lpq.WriterOptions{RowGroupRows: 2000, PageRows: 256}},
		{"paged-gzip", lpq.WriterOptions{RowGroupRows: 2000, PageRows: 256, Compression: lpq.Gzip}},
		{"unpaged", lpq.WriterOptions{RowGroupRows: 1000}},
		{"v1", lpq.WriterOptions{RowGroupRows: 1000, FormatV1: true}},
	} {
		svc := s3.New(s3.Config{})
		refs, _ := uploadLineitemOpts(t, svc, 0.005, 4, w.opts)
		want := referenceFiltered(t, New(newClient(svc), Config{}, refs...), proj, q6Filter())
		if want.NumRows() == 0 {
			t.Fatalf("%s: reference selected no rows — test has no teeth", w.name)
		}

		for _, tc := range []struct {
			cfg    Config
			filter engine.Expr
		}{
			{Config{}, q6Filter()},
			{DefaultConfig(), q6Filter()},
			{Config{DisableLateMaterialize: true}, q6Filter()},
			{Config{CoalesceGapBytes: -1}, q6Filter()},
			{Config{DoubleBuffer: true, ParallelColumns: true, Conns: 4}, q6Filter()},
			// Scan is ScanFiltered without a filter: chunk for chunk, and in
			// every counter.
			{Config{}, nil},
		} {
			label := fmt.Sprintf("%s cfg=%+v", w.name, tc.cfg)
			src := New(newClient(svc), tc.cfg, refs...)
			var chunks []*columnar.Chunk
			got := collectRows(t, mustSchema(t, src, proj), func(yield func(*columnar.Chunk) error) error {
				return src.ScanFiltered(proj, q6Preds(), tc.filter, func(c *columnar.Chunk) error {
					chunks = append(chunks, c)
					return yield(c)
				})
			})
			if tc.filter != nil {
				requireIdentical(t, label, got, want)
				continue
			}
			plain := New(newClient(svc), tc.cfg, refs...)
			n := 0
			err := plain.Scan(proj, q6Preds(), func(c *columnar.Chunk) error {
				if n < len(chunks) {
					requireIdentical(t, fmt.Sprintf("%s chunk %d", label, n), chunks[n], c)
				}
				n++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(chunks) || n == 0 {
				t.Fatalf("%s: Scan yields %d chunks, ScanFiltered(nil) %d", label, n, len(chunks))
			}
			if g, w := src.Stats(), plain.Stats(); g != w {
				t.Fatalf("%s: ScanFiltered(nil) stats %+v, Scan %+v", label, g, w)
			}
		}
	}
}

// TestScanFilteredCostCounters: on paged files with a selective filter the
// default path must bill strictly fewer GETs and bytes than the ablated
// (no coalescing, no late materialization) path, while staying
// byte-identical. This is the request-count guard at the scan layer.
func TestScanFilteredCostCounters(t *testing.T) {
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_orderkey", "l_partkey", "l_suppkey", "l_tax"}
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitemOpts(t, svc, 0.01, 4, lpq.WriterOptions{RowGroupRows: 4000, PageRows: 512})

	// Needle filter: the date range drives page pruning, and the
	// discount/quantity conjuncts (~0.2% joint selectivity) empty most
	// surviving pages so their payload columns are never fetched.
	needle := engine.And(
		engine.NewBin(engine.OpGE, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateLo)),
		engine.NewBin(engine.OpLT, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateHi)),
		engine.Between(engine.Col("l_discount"), engine.ConstFloat(0.0499999), engine.ConstFloat(0.0500001)),
		engine.NewBin(engine.OpLT, engine.Col("l_quantity"), engine.ConstFloat(2)),
	)
	run := func(cfg Config) (*columnar.Chunk, Stats) {
		src := New(newClient(svc), cfg, refs...)
		got := collectRows(t, mustSchema(t, src, proj), func(yield func(*columnar.Chunk) error) error {
			return src.ScanFiltered(proj, q6Preds(), needle, yield)
		})
		return got, src.Stats()
	}

	lateChunk, late := run(Config{})
	ablChunk, abl := run(Config{CoalesceGapBytes: -1, DisableLateMaterialize: true})
	requireIdentical(t, "late vs ablated", lateChunk, ablChunk)
	if lateChunk.NumRows() == 0 {
		t.Fatal("filter selected no rows — test has no teeth")
	}

	if late.BilledGets >= abl.BilledGets {
		t.Errorf("billed GETs: late-materialized+coalesced = %d, ablated = %d — want strictly fewer", late.BilledGets, abl.BilledGets)
	}
	if late.BilledBytes >= abl.BilledBytes {
		t.Errorf("billed bytes: late-materialized = %d, ablated = %d — want strictly fewer", late.BilledBytes, abl.BilledBytes)
	}
	if late.PagesPruned == 0 {
		t.Error("no pages pruned despite sorted shipdate and selective range")
	}
	if late.PagesFiltered == 0 {
		t.Error("no pages filtered empty despite the discount/quantity conjuncts")
	}
	if late.PagesRead == 0 {
		t.Error("no pages read")
	}
}

// Property check: ScanFiltered equals scan-then-filter for random ranges
// over a small synthetic table, across page boundaries.
func TestScanFilteredPropertyRandomRanges(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "val", Type: columnar.Float64},
	)
	const n = 1000
	c := columnar.NewChunk(schema, n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(i))
		c.Columns[1].AppendFloat64(float64((i*2654435761)%1000) / 7)
	}
	svc := s3.New(s3.Config{})
	env := simenv.NewImmediate()
	svc.MustCreateBucket("data")
	raw, err := lpq.WriteFile(schema, lpq.WriterOptions{RowGroupRows: 256, PageRows: 64}, c)
	if err != nil {
		t.Fatal(err)
	}
	svc.Put(env, "data", "t.lpq", raw)
	ref := FileRef{Bucket: "data", Key: "t.lpq"}

	f := func(loRaw, hiRaw uint16) bool {
		lo, hi := int64(loRaw)%n, int64(hiRaw)%n
		if lo > hi {
			lo, hi = hi, lo
		}
		filter := engine.And(
			engine.NewBin(engine.OpGE, engine.Col("id"), engine.ConstInt(lo)),
			engine.NewBin(engine.OpLE, engine.Col("id"), engine.ConstInt(hi)),
		)
		preds := []lpq.Predicate{{Column: "id", Min: float64(lo), Max: float64(hi),
			HasInt: true, MinInt: lo, MaxInt: hi}}

		src := New(newClient(svc), Config{}, ref)
		got := collectRows(t, schema, func(yield func(*columnar.Chunk) error) error {
			return src.ScanFiltered(nil, preds, filter, yield)
		})
		if got.NumRows() != int(hi-lo+1) {
			return false
		}
		for i, id := range got.Columns[0].Int64s {
			if id != lo+int64(i) {
				return false
			}
			if got.Columns[1].Float64s[i] != c.Columns[1].Float64s[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
