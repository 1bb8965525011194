package engine

import (
	"runtime"
	"testing"

	"lambada/internal/columnar"
)

// leastAllocated returns the fewest bytes (TotalAlloc, collected or not) any
// of three runs of f allocates: TotalAlloc is process-wide, so a run also
// counts what the runtime or another goroutine allocated meanwhile. The tests
// using it do not run in parallel, and not under the race detector, which
// pads what is allocated.
func leastAllocated(t *testing.T, f func()) uint64 {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	var least uint64
	for run := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestCollectWritesEachRowOnce: Execute of a bare scan — a collect — over k
// chunks allocates its output's bytes once, sized to their summed rows, plus
// a small constant for the plan; over one chunk it allocates no vector at all,
// the chunk being the output as it is. Appending the chunks onto an empty
// output instead grows every column by reallocating it, about five times its
// bytes in all.
func TestCollectWritesEachRowOnce(t *testing.T) {
	const rows, overhead = 1 << 15, 16 << 10
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	whole := columnar.NewChunk(schema, rows)
	for i := range rows {
		whole.Columns[0].AppendInt64(int64(i))
		whole.Columns[1].AppendFloat64(float64(i) / 4)
	}
	outBytes := uint64(whole.ByteSize())
	for _, k := range []int{1, 8} {
		src := chunked(schema, whole, rows/k)
		var out *columnar.Chunk
		got := leastAllocated(t, func() {
			var err error
			if out, err = Execute(&ScanPlan{Table: "t"}, Catalog{"t": src}); err != nil {
				t.Fatal(err)
			}
		})
		chunksIdentical(t, out, whole)
		limit := outBytes + overhead
		if k == 1 {
			limit = overhead // less than one of its vectors, 256 KiB
		}
		if got > limit {
			t.Errorf("a collect of %d chunks, %d bytes, allocated %d bytes; want at most %d", k, outBytes, got, limit)
		}
	}
}
