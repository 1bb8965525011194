package worker

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/tpch"
)

// The worker's guards, each posed as the payload a planner that misjudged
// the memory would send: the worker refuses what does not fit its budget
// from the footers, before it fetches a byte, and seals the refusal typed.

// smallWorker is the memory of a worker with the smallest engine budget,
// 1 MiB: its resident inputs get 349 525 bytes, and a scanned row group as
// much.
const smallWorker = 193

// TestScanGroupOverBudgetRefusedBeforeRead: a scan worker's shipped footer
// claims one row group of one Int64 column, decoded from the five bytes of
// one RLE run, past the worker's resident budget — a third of its 16 MiB
// engine budget. Ten million rows, 80 MB, are five times the engine budget;
// one million, 8 MB, fit the engine budget but not the 3× working set a
// scanned group needs in it. The worker refuses either group from its
// footer, before the group's window is issued: the failure seal is
// ErrWorkerOOM, the worker bills no S3 read, and it allocates less than the
// budget. A worker that read first fetched the run and decoded the whole
// group before a check of the chunk saw it.
func TestScanGroupOverBudgetRefusedBeforeRead(t *testing.T) {
	const memoryMiB = 208 // engine budget 16 MiB, resident budget 5.3 MiB
	for _, rows := range []uint64{10_000_000, 1_000_000} {
		b := newTestbed()
		ref := scan.FileRef{Bucket: "tpch", Key: "bomb/part-0.lpq"}
		b.fn.S3.MustCreateBucket(ref.Bucket)
		if err := b.fn.S3.Put(b.env, ref.Bucket, ref.Key, oneGroupBomb(rows)); err != nil {
			t.Fatal(err)
		}
		pinned, err := scan.New(s3.NewClient(b.fn.S3, b.env), scan.DefaultConfig(), ref).Pin([]scan.FileRef{ref})
		if err != nil {
			t.Fatal(err)
		}
		schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
		plan := marshalled(t, optimized(t, "SELECT SUM(v) AS s FROM bomb", map[string]*columnar.Schema{"bomb": schema}))
		before := b.meter.Count(pricing.LabelS3Read)
		var st, end runtime.MemStats
		runtime.ReadMemStats(&st)
		r := b.seal(t, memoryMiB, Payload{QueryID: "q1", NumWorkers: 1, Plan: plan, Tables: TableFiles{"bomb": pinned}})
		runtime.ReadMemStats(&end)
		wantOOM(t, r, "scan: ")
		if n := b.meter.Count(pricing.LabelS3Read) - before; n != 0 {
			t.Errorf("%d rows: %d S3 reads billed, want none", rows, n)
		}
		if alloc, budget := end.TotalAlloc-st.TotalAlloc, uint64(engine.MemoryBudget(memoryMiB)); alloc > budget {
			t.Errorf("%d rows: the task allocated %d MiB, past the %d MiB budget", rows, alloc>>20, budget>>20)
		}
	}
}

// oneGroupBomb is an lpq file of one Int64 column v whose one unpaged row
// group holds rows equal values: one RLE run, five bytes at ten million rows.
// The lpq writer buffers a whole group, so the footer is written here.
func oneGroupBomb(rows uint64) []byte {
	uv := binary.AppendUvarint
	data := uv(uv(nil, rows), 14) // a run of rows values, zigzag(7)
	footer := append(uv(uv(nil, 1), 1), 'v', byte(columnar.Int64))
	footer = uv(uv(footer, 1), rows) // one row group
	// Offset, stored and raw length, RLE, no compression, no stats, one
	// distinct value, no nulls, unpaged.
	footer = uv(uv(uv(footer, 0), uint64(len(data))), uint64(len(data)))
	footer = append(footer, byte(lpq.RLE), byte(lpq.None), 0)
	footer = uv(uv(uv(footer, 1), 0), 0)
	footer = uv(footer, rows) // total rows
	out := binary.LittleEndian.AppendUint32(append(data, footer...), uint32(len(footer)))
	return append(out, "LPQ2"...)
}

// TestBuildSideOverBudgetRefusedBeforeRead: a hash join holds its build side
// whole, so a worker charges it to its resident budget from the footers
// before its first request window. ORDERS at SF 0.02 — 30 000 rows of the
// two columns q12 projects, 480 KB — is past the smallest worker's resident
// budget: a q12 task that broadcasts it seals a non-retryable ErrWorkerOOM,
// and its bucket bills no GET. A full-size worker runs the same task and
// reads the build side.
func TestBuildSideOverBudgetRefusedBeforeRead(t *testing.T) {
	g := tpch.Gen{SF: 0.02, Seed: 5}
	li := g.Generate()
	orders := g.OrdersFor(li)
	plan := marshalled(t, optimized(t, tpch.Q12SQL, map[string]*columnar.Schema{"lineitem": li.Schema, "orders": orders.Schema}))
	run := func(memoryMiB int) (Result, int64) {
		b := newTestbed()
		tables := TableFiles{
			"lineitem": b.upload(t, "tpch", "lineitem", li, 4, lpq.WriterOptions{})[:1],
			"orders":   b.upload(t, "build", "orders", orders, 2, lpq.WriterOptions{}),
		}
		before, _ := b.fn.S3.BucketStats("build")
		r := b.seal(t, memoryMiB, Payload{QueryID: "q1", NumWorkers: 4, Plan: plan, Tables: tables})
		after, _ := b.fn.S3.BucketStats("build")
		return r, after.Gets - before.Gets
	}
	r, gets := run(smallWorker)
	wantOOM(t, r, "build side")
	if gets != 0 {
		t.Errorf("the build side's bucket billed %d GETs, want none", gets)
	}
	if r, gets = run(1792); r.Err != "" {
		t.Fatalf("a full-size worker: %s", r.Err)
	} else if gets == 0 {
		t.Error("a full-size worker billed no GET on the build side's bucket, want its reads")
	}
}

// TestSumOverflowSealsNonRetryable: a BIGINT SUM past int64's range fails the
// task with engine.ErrSumOverflow naming the aggregate's column, and the
// worker seals it non-retryable — another attempt sums the same rows — where
// a wrapped total was once posted as the answer.
func TestSumOverflowSealsNonRetryable(t *testing.T) {
	b := newTestbed()
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	data := columnar.NewChunk(schema, 3)
	for range 3 {
		data.Columns[0].AppendInt64(1 << 62)
	}
	plan := marshalled(t, optimized(t, "SELECT SUM(v) AS total FROM big", map[string]*columnar.Schema{"big": schema}))
	tables := TableFiles{"big": b.upload(t, "tpch", "big", data, 1, lpq.WriterOptions{})}
	r := b.seal(t, 1792, Payload{QueryID: "q1", NumWorkers: 1, Plan: plan, Tables: tables})
	if r.Retryable || !strings.Contains(r.Err, engine.ErrSumOverflow.Error()+" in column total") {
		t.Errorf("seal %q (retryable: %t), want a non-retryable %q naming column total", r.Err, r.Retryable, engine.ErrSumOverflow)
	}
}
