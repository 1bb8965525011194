package scan

import (
	"fmt"
	"math"
	"sync"
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

func TestParallelScanMatchesSerialByteIdentical(t *testing.T) {
	for _, comp := range []lpq.Compression{lpq.None, lpq.Gzip} {
		svc := s3.New(s3.Config{})
		refs, _ := uploadLineitem(t, svc, 0.005, 8, comp)

		serialCfg := DefaultConfig()
		serialCfg.ParallelFiles = 1
		serial := collectScan(t, New(newClient(svc), serialCfg, refs...), nil, nil)

		for _, pf := range []int{2, 4, 16} {
			cfg := DefaultConfig()
			cfg.ParallelFiles = pf
			src := New(newClient(svc), cfg, refs...)
			got := collectScan(t, src, nil, nil)
			chunksIdentical(t, got, serial)

			// Stats must survive the parallel path.
			st := src.Stats()
			if st.RowGroupsRead != int64(len(serial)) {
				t.Errorf("pf=%d: rowGroupsRead = %d, want %d", pf, st.RowGroupsRead, len(serial))
			}
		}

		// Projection + pruning through the parallel path.
		preds := []lpq.Predicate{{Column: "l_quantity", Min: 0, Max: 10}}
		serialP := collectScan(t, New(newClient(svc), serialCfg, refs...), []string{"l_quantity", "l_extendedprice"}, preds)
		cfg := DefaultConfig()
		cfg.ParallelFiles = 4
		gotP := collectScan(t, New(newClient(svc), cfg, refs...), []string{"l_quantity", "l_extendedprice"}, preds)
		chunksIdentical(t, gotP, serialP)
	}
}

func TestParallelScanMoreFilesThanSlots(t *testing.T) {
	// Regression: admission must be granted in file order. With more files
	// than ParallelFiles and more row groups per file than the per-file
	// channel buffer, a plain semaphore could hand every slot to later
	// files while the consumer waits on file 0 — a deadlock.
	svc := s3.New(s3.Config{})
	env := simenv.NewImmediate()
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.01, Seed: 5}.Generate()
	var refs []FileRef
	parts := tpch.SplitFiles(data, 12)
	for i, part := range parts {
		// ~500-row groups → ~10 chunks per file, well past the buffer of 2.
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
	serialCfg := DefaultConfig()
	serialCfg.ParallelFiles = 1
	serial := collectScan(t, New(newClient(svc), serialCfg, refs...), nil, nil)
	for _, pf := range []int{2, 3, 5} {
		cfg := DefaultConfig()
		cfg.ParallelFiles = pf
		got := collectScan(t, New(newClient(svc), cfg, refs...), nil, nil)
		chunksIdentical(t, got, serial)
	}
}

func TestParallelScanErrorPropagation(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitem(t, svc, 0.002, 4, lpq.None)
	refs = append(refs, FileRef{Bucket: "data", Key: "missing.lpq"})
	cfg := DefaultConfig()
	cfg.ParallelFiles = 4
	src := New(newClient(svc), cfg, refs...)
	n := 0
	err := src.Scan(nil, nil, func(c *columnar.Chunk) error { n += c.NumRows(); return nil })
	if err == nil {
		t.Fatal("missing file scanned without error")
	}
	if n == 0 {
		t.Error("chunks of earlier files should have been yielded before the failing file")
	}

	// A consumer error must cancel in-flight file workers without hanging.
	src2 := New(newClient(svc), cfg, refs[:4]...)
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
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestOpenSingleflight(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs, _ := uploadLineitem(t, svc, 0.001, 1, lpq.None)
	src := New(newClient(svc), DefaultConfig(), refs...)

	// Hammer open from many goroutines: the footer must be fetched once.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := src.Schema(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// One open costs exactly one read request — the suffix read that returns
	// the size with the footer; it was two, a HEAD and the footer fetch — no
	// matter how many goroutines raced for it.
	if got := meter.Count(pricing.LabelS3Read); got != 1 {
		t.Errorf("open requests = %d, want exactly 1 (singleflight)", got)
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
