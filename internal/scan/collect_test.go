package scan

import (
	"errors"
	"fmt"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
)

// pinnedLineitem uploads SF 0.005 lineitem as nfiles files of groupRows-row
// groups and returns their pinned refs, the service and the data.
func pinnedLineitem(t *testing.T, nfiles, groupRows int) ([]FileRef, *s3.Service, *columnar.Chunk) {
	t.Helper()
	svc := s3.New(s3.Config{})
	refs, data := uploadLineitemOpts(t, svc, 0.005, nfiles, lpq.WriterOptions{RowGroupRows: groupRows})
	pinned, err := New(newClient(svc), DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		t.Fatal(err)
	}
	return pinned, svc, data
}

// pinnedSource binds refs as a worker does, held to bound.
func pinnedSource(t *testing.T, svc *s3.Service, bound int64, refs []FileRef) *Source {
	t.Helper()
	srcs, err := Pinned(newClient(svc), bound, refs)
	if err != nil {
		t.Fatal(err)
	}
	return srcs[0]
}

// TestPinnedBuildSideAllocatesItsOutputOnce: an unfiltered collect over a
// pinned source of 4 files × 4 row groups — a broadcast build side's pipeline
// — counts its rows from the footers, allocates its output once at that
// count and decodes every row group into one recycled chunk, so that it
// allocates the output, one row group's chunk, the bytes it downloads (each
// GET's reply is a buffer of its own, which the runtime rounds up to whole
// 8 KiB pages) and a fixed overhead — not a chunk per row group plus an
// output grown by reallocation.
func TestPinnedBuildSideAllocatesItsOutputOnce(t *testing.T) {
	const groupRows = 2000
	proj := []string{"l_orderkey", "l_suppkey"} // 16 bytes a row
	refs, svc, data := pinnedLineitem(t, 4, groupRows)
	want, err := data.Project(proj...)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for run := range 3 {
		src := pinnedSource(t, svc, 1<<30, refs)
		var out *columnar.Chunk
		n := allocated(t, func() {
			out, err = engine.Execute(&engine.ScanPlan{Table: "t", Projection: proj}, engine.Catalog{"t": src})
		})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "build side", out, want)
		if st := src.Stats(); st.RowGroupsRead != 16 {
			t.Fatalf("read %d row groups, want 4 files × 4", st.RowGroupsRead)
		}
		if run == 0 || n < got {
			got = n
		}
	}
	downloaded := pinnedSource(t, svc, 1<<30, refs)
	if _, err := engine.Execute(&engine.ScanPlan{Table: "t", Projection: proj}, engine.Catalog{"t": downloaded}); err != nil {
		t.Fatal(err)
	}
	st, outBytes, groupBytes := downloaded.Stats(), want.ByteSize(), int64(16*groupRows)
	if limit := uint64(outBytes + groupBytes + st.BilledBytes + st.BilledGets<<13 + scanOverhead); got >= limit {
		t.Errorf("the build side allocated %d bytes, want < %d: %d output + %d a row group + %d downloaded in %d GETs + 8 KiB each + %d",
			got, limit, outBytes, groupBytes, st.BilledBytes, st.BilledGets, scanOverhead)
	}
}

// TestSelfJoinRecyclesIntoOneSource: a join whose two sides scan one pinned
// source — the build side a counted collect, the probe side under an
// aggregate — hands both sides' chunks back into that source's one chunk
// pool, and returns the rows of the same plan over the data in memory: the
// build side's output shares no vector with a chunk the probe side's scan
// gathers into, whether its source holds one row group or several.
func TestSelfJoinRecyclesIntoOneSource(t *testing.T) {
	plan := func() engine.Plan {
		return &engine.AggregatePlan{
			GroupBy: []string{"l_returnflag"},
			Aggs: []engine.AggSpec{
				{Func: engine.AggCount, Name: "n"},
				{Func: engine.AggMax, Arg: engine.Col("l_extendedprice"), Name: "hi"},
				{Func: engine.AggMin, Arg: engine.Col("l_quantity"), Name: "lo"},
			},
			In: &engine.JoinPlan{
				Left:      &engine.ScanPlan{Table: "t", Projection: []string{"l_orderkey", "l_quantity", "l_returnflag"}},
				Right:     &engine.ScanPlan{Table: "t", Projection: []string{"l_orderkey", "l_extendedprice"}},
				LeftKeys:  []string{"l_orderkey"},
				RightKeys: []string{"l_orderkey"},
			},
		}
	}
	for _, shape := range []struct{ files, groupRows int }{{1, 1 << 20}, {3, 2000}} {
		t.Run(fmt.Sprintf("%dx%d", shape.files, shape.groupRows), func(t *testing.T) {
			refs, svc, data := pinnedLineitem(t, shape.files, shape.groupRows)
			want, err := engine.Execute(plan(), engine.Catalog{"t": engine.NewMemSource(data.Schema, data)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Execute(plan(), engine.Catalog{"t": pinnedSource(t, svc, 1<<30, refs)})
			if err != nil {
				t.Fatal(err)
			}
			if want.NumRows() < 3 {
				t.Fatalf("%d groups — test has no teeth", want.NumRows())
			}
			requireIdentical(t, "self-join", got, want)
		})
	}
}

// TestCountedCollectHoldsToTheBound: a collect sizes its output by the rows
// the footers claim only within the source's bound. Row groups that each fit
// the bound but together pass it are collected by concatenation, rows intact
// — and when the second of them turns out corrupt, the scan fails having
// allocated about two of them, not the output all of them claim. A row group
// whose claimed rows alone pass the bound fails the scan typed
// (lpq.ErrOverBound) from its footer, without a panic and without allocating
// what it claims. The rows are 8 MiB of zeros that gzip stores in a few KiB.
func TestCountedCollectHoldsToTheBound(t *testing.T) {
	const rows = 1 << 20
	const bound = 8 * rows / 8 // an eighth of what the rows decode to
	schema := columnar.NewSchema(columnar.Field{Name: "z", Type: columnar.Int64})
	zeros := columnar.NewChunk(schema, rows)
	zeros.Columns[0].Int64s = zeros.Columns[0].Int64s[:rows]
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	put := func(key string, raw []byte) {
		if err := svc.Put(simenv.NewImmediate(), "data", key, raw); err != nil {
			t.Fatal(err)
		}
	}
	upload := func(key string, groupRows int) ([]FileRef, []byte) {
		raw, err := lpq.WriteFile(schema, lpq.WriterOptions{RowGroupRows: groupRows, Compression: lpq.Gzip}, zeros)
		if err != nil {
			t.Fatal(err)
		}
		put(key, raw)
		refs := []FileRef{{Bucket: "data", Key: key}}
		pinned, err := New(newClient(svc), DefaultConfig(), refs...).Pin(refs)
		if err != nil {
			t.Fatal(err)
		}
		return pinned, raw
	}
	collect := func(refs []FileRef) (out *columnar.Chunk, allocs uint64, err error) {
		src := pinnedSource(t, svc, bound, refs)
		allocs = allocated(t, func() {
			out, err = engine.Execute(&engine.ScanPlan{Table: "t"}, engine.Catalog{"t": src})
		})
		return out, allocs, err
	}

	groups, raw := upload("groups", rows/64)
	out, _, err := collect(groups)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "groups within the bound", out, zeros)
	meta := pinnedSource(t, svc, bound, groups).opens["data/groups"].ft.meta
	second := meta.RowGroups[1].Columns[0]
	for i := range second.CompressedLen {
		raw[second.Offset+i] = 0xff
	}
	put("groups", raw)
	if _, got, err := collect(groups); err == nil || got >= bound/2 {
		t.Errorf("a corrupt second row group: err = %v after allocating %d bytes; want an error within %d bytes", err, got, bound/2)
	}

	whole, _ := upload("whole", rows)
	if _, got, err := collect(whole); !errors.Is(err, lpq.ErrOverBound) || got >= bound/2 {
		t.Errorf("a row group of %d claimed bytes: err = %v after allocating %d bytes; want lpq.ErrOverBound within %d bytes", 8*rows, err, got, bound/2)
	}
}
