package scan

import (
	"fmt"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// benchFiles uploads SF 0.02 lineitem as 8 gzip lpq files.
func benchFiles(b *testing.B) (*s3.Service, []FileRef, int64) {
	b.Helper()
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.02, Seed: 9}.Generate()
	var refs []FileRef
	for i, part := range data.Split(8) {
		raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 4096, Compression: lpq.Gzip}, part)
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("lineitem/part-%03d.lpq", i)
		if err := svc.Put(env, "data", key, raw); err != nil {
			b.Fatal(err)
		}
		refs = append(refs, FileRef{Bucket: "data", Key: key})
	}
	return svc, refs, data.ByteSize()
}

// BenchmarkScan times a multi-file scan: of every column (all), of Q6's
// columns under its pushed-down filter (q6), the late-materialized read
// whose pages and temporaries the source recycles, and of the same with
// every yielded chunk handed back to the source, as an aggregate does
// (q6-recycled).
func BenchmarkScan(b *testing.B) {
	svc, refs, bytes := benchFiles(b)
	q6Cols := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}
	for _, bc := range []struct {
		name    string
		proj    []string
		filter  engine.Expr
		recycle bool
	}{
		{"all", nil, nil, false},
		{"q6", q6Cols, q6Filter(), false},
		{"q6-recycled", q6Cols, q6Filter(), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := New(s3.NewClient(svc, simenv.NewImmediate()), DefaultConfig(), refs...)
				chunks := 0
				err := src.ScanFiltered(bc.proj, nil, bc.filter, func(c *columnar.Chunk) error {
					chunks++
					if bc.recycle {
						src.Recycle(c)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if chunks == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkBuildSide times what a broadcast join's build pipeline runs on a
// worker: an unfiltered collect of two columns over a pinned source of the 8
// files, which counts its rows from the footers and copies each row group
// into one output of that size. Its B/op is about that output, one row
// group's chunk and the downloaded bytes.
func BenchmarkBuildSide(b *testing.B) {
	svc, refs, _ := benchFiles(b)
	pinned, err := New(s3.NewClient(svc, simenv.NewImmediate()), DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs, err := Pinned(s3.NewClient(svc, simenv.NewImmediate()), 1<<30, pinned)
		if err != nil {
			b.Fatal(err)
		}
		plan := &engine.ScanPlan{Table: "orders", Projection: []string{"l_orderkey", "l_suppkey"}}
		out, err := engine.Execute(plan, engine.Catalog{"orders": srcs[0]})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(out.ByteSize())
	}
}
