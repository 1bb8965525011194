package scan

import (
	"fmt"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
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
	for i, part := range tpch.SplitFiles(data, 8) {
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

// BenchmarkParallelScan times a multi-file scan of every column under the
// default configuration.
func BenchmarkParallelScan(b *testing.B) {
	svc, refs, bytes := benchFiles(b)
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := New(s3.NewClient(svc, simenv.NewImmediate()), DefaultConfig(), refs...)
		rows := 0
		err := src.Scan(nil, nil, func(c *columnar.Chunk) error {
			rows += c.NumRows()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("no rows")
		}
	}
}
