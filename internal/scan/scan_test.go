package scan

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/s3fs"
	"lambada/internal/tpch"
)

// uploadLineitem writes SF data as nfiles lpq objects and returns the refs.
func uploadLineitem(t *testing.T, svc *s3.Service, sf float64, nfiles int, comp lpq.Compression) ([]FileRef, *columnar.Chunk) {
	t.Helper()
	env := simenv.NewImmediate()
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: sf, Seed: 9}.Generate()
	var refs []FileRef
	for i, part := range data.Split(nfiles) {
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 2000, Compression: comp}, part)
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

func newClient(svc *s3.Service) *s3.Client {
	return s3.NewClient(svc, simenv.NewImmediate())
}

func TestS3fsReadAt(t *testing.T) {
	svc := s3.New(s3.Config{})
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	svc.Put(env, "b", "k", payload)
	f, _, err := s3fs.Open(newClient(svc), "b", "k", lpq.FooterGuess)
	if err != nil {
		t.Fatal(err)
	}
	f.ChunkBytes = 64 // force many requests
	buf := make([]byte, 300)
	n, err := f.ReadAt(buf, 500)
	if err != nil || n != 300 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i := 0; i < 300; i++ {
		if buf[i] != byte((500+i)%251) {
			t.Fatalf("byte %d wrong", i)
		}
	}
	// Partial read at the tail returns io.EOF.
	n, err = f.ReadAt(buf, 900)
	if n != 100 || err != io.EOF {
		t.Errorf("tail read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, 2000); err != io.EOF {
		t.Errorf("past-end read err = %v", err)
	}
	// 300 bytes at 64-byte chunks = 5 requests, plus tail read 2, plus the
	// open's one suffix read (a HEAD before this PR: same count).
	if f.Requests() < 7 {
		t.Errorf("requests = %d", f.Requests())
	}
}

func TestScanMatchesReference(t *testing.T) {
	for _, comp := range []lpq.Compression{lpq.None, lpq.Gzip} {
		for _, cfg := range []Config{
			DefaultConfig(),
			{ParallelColumns: true},
		} {
			svc := s3.New(s3.Config{})
			refs, data := uploadLineitem(t, svc, 0.002, 4, comp)
			src := New(newClient(svc), cfg, refs...)
			cat := engine.Catalog{"lineitem": src}

			plan := &engine.AggregatePlan{
				Aggs: []engine.AggSpec{
					{Func: engine.AggSum, Arg: engine.Col("l_quantity"), Name: "s"},
					{Func: engine.AggCount, Name: "n"},
				},
				In: &engine.ScanPlan{Table: "lineitem"},
			}
			out, err := engine.Execute(plan, cat)
			if err != nil {
				t.Fatalf("comp=%v cfg=%+v: %v", comp, cfg, err)
			}
			if got := out.Column("n").Int64s[0]; got != int64(data.NumRows()) {
				t.Errorf("comp=%v cfg=%+v: count = %d, want %d", comp, cfg, got, data.NumRows())
			}
			var wantSum float64
			for _, q := range data.Column("l_quantity").Float64s {
				wantSum += q
			}
			if got := out.Column("s").Float64s[0]; math.Abs(got-wantSum) > 1e-6*wantSum {
				t.Errorf("comp=%v cfg=%+v: sum = %v, want %v", comp, cfg, got, wantSum)
			}
		}
	}
}

func TestScanQ6WithPruningAndProjection(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, data := uploadLineitem(t, svc, 0.005, 8, lpq.Gzip)
	src := New(newClient(svc), DefaultConfig(), refs...)
	cat := engine.Catalog{"lineitem": src}

	pred := engine.And(
		engine.NewBin(engine.OpGE, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateLo)),
		engine.NewBin(engine.OpLT, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateHi)),
		engine.Between(engine.Col("l_discount"), engine.ConstFloat(0.0499999), engine.ConstFloat(0.0700001)),
		engine.NewBin(engine.OpLT, engine.Col("l_quantity"), engine.ConstFloat(24)),
	)
	var plan engine.Plan = &engine.AggregatePlan{
		Aggs: []engine.AggSpec{{Func: engine.AggSum, Arg: engine.NewBin(engine.OpMul, engine.Col("l_extendedprice"), engine.Col("l_discount")), Name: "revenue"}},
		In:   &engine.FilterPlan{Pred: pred, In: &engine.ScanPlan{Table: "lineitem"}},
	}
	plan, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	if got := out.Column("revenue").Float64s[0]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", got, want)
	}
	st := src.Stats()
	if st.RowGroupsPruned == 0 {
		t.Error("no row groups pruned despite sorted shipdate and Q6 range")
	}
	if st.RowGroupsRead == 0 {
		t.Error("no row groups read")
	}
}

func TestScanPruningSkipsWholeFiles(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.005, 16, lpq.None)
	src := New(newClient(svc), DefaultConfig(), refs...)
	preds := []lpq.Predicate{{Column: "l_shipdate", Min: float64(tpch.Q6ShipDateLo), Max: float64(tpch.Q6ShipDateHi - 1)}}
	n := 0
	err := src.Scan([]string{"l_extendedprice"}, preds, func(c *columnar.Chunk) error { n += c.NumRows(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.FilesAllPruned == 0 {
		t.Error("no files fully pruned; expected most (Figure 11 mechanism)")
	}
	if n == 0 {
		t.Error("scan returned no rows")
	}
}

// TestScanReorderedProjection: a projection names its columns in any order,
// and the scan yields them in that order, each with its own values.
func TestScanReorderedProjection(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, data := uploadLineitem(t, svc, 0.002, 2, lpq.None)
	proj := []string{"l_shipdate", "l_quantity", "l_orderkey"}
	schema, err := tpch.Schema().Project(proj...)
	if err != nil {
		t.Fatal(err)
	}
	got := columnar.NewChunk(schema, data.NumRows())
	err = New(newClient(svc), DefaultConfig(), refs...).Scan(proj, nil, func(c *columnar.Chunk) error {
		if !c.Schema.Equal(got.Schema) {
			return fmt.Errorf("chunk schema %v, want %v", c.Schema, got.Schema)
		}
		got.AppendChunk(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range proj {
		if !reflect.DeepEqual(got.Column(name), data.Column(name)) {
			t.Errorf("column %s differs from the relation's", name)
		}
	}
}

func TestChunkSizeDrivesRequestCount(t *testing.T) {
	// Figure 7: halving the chunk size roughly doubles the request count
	// and cost of a read.
	counts := map[int64]int64{}
	small, large := int64(64<<10), int64(256<<10)
	for _, chunk := range []int64{small, large} {
		meter := pricing.NewCostMeter()
		svc := s3.New(s3.Config{Meter: meter})
		env := simenv.NewImmediate()
		svc.MustCreateBucket("data")
		// One big row group so column chunks (~480 KB) exceed the request
		// chunk size and level-1 splitting kicks in.
		data := tpch.Gen{SF: 0.01, Seed: 9}.Generate()
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 1 << 20}, data)
		if err != nil {
			t.Fatal(err)
		}
		svc.Put(env, "data", "one.lpq", raw)
		// The scan reads at s3fs.DefaultChunkBytes; the request size is the
		// file handle's, so the sizes compared are set there.
		f, tail, err := s3fs.Open(newClient(svc), "data", "one.lpq", lpq.FooterGuess)
		if err != nil {
			t.Fatal(err)
		}
		f.ChunkBytes = chunk
		r, err := lpq.OpenTail(f, f.Size(), tail)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
		counts[chunk] = meter.Count(pricing.LabelS3Read)
	}
	if counts[small] < 2*counts[large] {
		t.Errorf("%dKiB chunks made %d requests, %dKiB made %d — smaller chunks must cost proportionally more requests",
			small>>10, counts[small], large>>10, counts[large])
	}
}

func TestSchemaFromFirstFile(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.001, 2, lpq.None)
	src := New(newClient(svc), Config{}, refs...)
	schema, err := src.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(tpch.Schema()) {
		t.Errorf("schema = %v", schema)
	}
	empty := New(newClient(svc), Config{})
	if _, err := empty.Schema(); err == nil {
		t.Error("empty source returned a schema")
	}
}

func TestMissingFileSurfacesError(t *testing.T) {
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	src := New(newClient(svc), DefaultConfig(), FileRef{Bucket: "data", Key: "nope.lpq"})
	err := src.Scan(nil, nil, func(*columnar.Chunk) error { return nil })
	if err == nil {
		t.Error("missing file scanned without error")
	}
}

func TestUnknownProjectionColumn(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.001, 1, lpq.None)
	src := New(newClient(svc), Config{}, refs...)
	err := src.Scan([]string{"no_such_col"}, nil, func(*columnar.Chunk) error { return nil })
	if err == nil {
		t.Error("unknown projection column accepted")
	}
}
