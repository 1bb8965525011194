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
// bytes in all. An ORDER BY over the 8 chunks allocates its output once plus
// an 8-byte index entry a row — concatenating the chunks first and then
// gathering them into sorted order wrote every row twice — and an ORDER BY …
// LIMIT 10 the index and its 10 rows, where a second pipeline for the LIMIT
// copied them once more. A bare LIMIT 10 allocates no vector the size of its
// input: it keeps the first chunk's 10 rows (TestLimitStopsScanEarly checks
// that it stops the scan there).
func TestCollectWritesEachRowOnce(t *testing.T) {
	const rows, overhead = 1 << 15, 16 << 10
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	whole := columnar.NewChunk(schema, rows)
	reversed := columnar.NewChunk(schema, rows)
	for i := range rows {
		whole.Columns[0].AppendInt64(int64(i))
		whole.Columns[1].AppendFloat64(float64(i) / 4)
		reversed.Columns[0].AppendInt64(int64(rows - 1 - i))
		reversed.Columns[1].AppendFloat64(float64(rows-1-i) / 4)
	}
	outBytes := uint64(whole.ByteSize())
	scan := &ScanPlan{Table: "t"}
	desc := &OrderByPlan{Keys: []OrderKey{{Column: "v", Desc: true}}, In: scan}
	for _, tc := range []struct {
		name   string
		plan   Plan
		chunks int
		want   *columnar.Chunk
		limit  uint64
	}{
		{"a collect of 1 chunk", scan, 1, whole, overhead}, // less than one of its vectors, 256 KiB
		{"a collect of 8 chunks", scan, 8, whole, outBytes + overhead},
		{"an ORDER BY of 8 chunks", desc, 8, reversed, outBytes + 8*rows + overhead},
		{"an ORDER BY … LIMIT 10 of 8 chunks", &LimitPlan{N: 10, In: desc}, 8, reversed.Slice(0, 10), 8*rows + overhead},
		{"a LIMIT 10 of 8 chunks", &LimitPlan{N: 10, In: scan}, 8, whole.Slice(0, 10), overhead},
	} {
		src := chunked(schema, whole, rows/tc.chunks)
		var out *columnar.Chunk
		got := leastAllocated(t, func() {
			var err error
			if out, err = Execute(tc.plan, Catalog{"t": src}); err != nil {
				t.Fatal(err)
			}
		})
		chunksIdentical(t, out, tc.want)
		if got > tc.limit {
			t.Errorf("%s, %d bytes, allocated %d bytes; want at most %d", tc.name, outBytes, got, tc.limit)
		}
	}
}
