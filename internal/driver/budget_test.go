package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
	"lambada/internal/worker"
)

// The resident budget: a task's build sides, the partitions it
// collected and a regroup's group draw on one third of the engine budget
// (engine.ResidentBudget), and every lpq byte a worker or the driver decodes
// is held to its bound before it is allocated. Each repro below is a query an
// unbounded decoder finishes; the refusals a worker makes from its footers,
// before any read, are posed as payloads in internal/worker.

// smallWorker is the memory of a worker with the smallest engine budget,
// 1 MiB: its resident inputs get 349 525 bytes, and a scanned chunk as much.
const smallWorker = 193

// budgetSession is a goroutine-worker session of workers with memoryMiB,
// LINEITEM at sf uploaded in four files, its ORDERS in two and supplier in
// one.
func budgetSession(t *testing.T, memoryMiB int, sf float64, supplier *columnar.Chunk) (*Session, simenv.Env, TableFiles) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WorkerMemoryMiB = memoryMiB
	d, env, _ := goSession(t, cfg, layout{})
	g := tpch.Gen{SF: sf, Seed: 5}
	li := g.Generate()
	tables := TableFiles{}
	for _, tb := range []struct {
		name  string
		data  *columnar.Chunk
		files int
	}{{"lineitem", li, 4}, {"orders", g.OrdersFor(li), 2}, {"supplier", supplier, 1}} {
		refs, err := d.UploadTable(env, "tpch", tb.name, tb.data, tb.files, lpq.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tables[tb.name] = refs
	}
	return d, env, tables
}

// wantOOM fails t unless err is the non-retryable failure seal of a worker
// out of memory whose message, past engine.ErrWorkerOOM's, starts with prefix.
func wantOOM(t *testing.T, err error, prefix string) {
	t.Helper()
	var sf *StageFailure
	switch {
	case !errors.As(err, &sf):
		t.Fatalf("err = %v, want a worker's failure seal", err)
	case sf.Retryable:
		t.Errorf("out of memory sealed retryable: %v", sf)
	case !strings.HasPrefix(sf.Msg, engine.ErrWorkerOOM.Error()+": "+prefix):
		t.Errorf("failure seal %q, want %q: %q…", sf.Msg, engine.ErrWorkerOOM, prefix)
	}
}

const countJoin = "SELECT COUNT(*) AS n FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey"

// TestRegroupOverBudgetFailsTyped: a regroup worker merges its group — two
// of four partitions of the order keys of LINEITEM at SF 0.02, ≈ 480 KB —
// before it splits it again. On the smallest worker that is past its
// resident budget, while every scanned chunk (one of four files, ≈ 240 KB)
// and every join partition (≈ 300 KB with its ORDERS side) fit. The regroup
// task posts a non-retryable engine.ErrWorkerOOM failure seal: the decoder's
// refusal, unwrapped by any collect. A full-size worker runs the same query.
func TestRegroupOverBudgetFailsTyped(t *testing.T) {
	scfg := shuffled(4)
	scfg.Exchange.Variant.Levels = 2
	d, env, tables := budgetSession(t, smallWorker, 0.02, tpch.Gen{SF: 0.01}.Supplier())
	_, _, err := d.RunSQLStaged(env, countJoin, tables, scfg)
	wantOOM(t, err, "lpq: ")

	d, env, tables = budgetSession(t, DefaultConfig().WorkerMemoryMiB, 0.02, tpch.Gen{SF: 0.01}.Supplier())
	if _, _, err := d.RunSQLStaged(env, countJoin, tables, scfg); err != nil {
		t.Fatalf("a full-size worker: %v", err)
	}
}

// TestJoinWorkingSetCountsBroadcast: a join stage that collects LINEITEM ⋈
// ORDERS partitions (270–274 KB at SF 0.01 and four partitions) and holds a
// broadcast SUPPLIER counts both in one sum. A 5 000-row SUPPLIER is charged
// 80 000 B, twice its rows × the 8 B of s_suppkey, the one column the join
// reads; that leaves 269 525 B of the smallest worker's 349 525 B resident
// budget, less than any of the collects needs, and the collect fails, typed.
// With a 100-row one the same partitions fit.
func TestJoinWorkingSetCountsBroadcast(t *testing.T) {
	const q = countJoin + " INNER JOIN supplier ON l_suppkey = s_suppkey"
	scfg := DefaultStageConfig()
	// ORDERS' 15 000 rows shuffle; SUPPLIER broadcasts.
	scfg.Partitions, scfg.BroadcastRowLimit = 4, 10_000
	d, env, tables := budgetSession(t, smallWorker, 0.01, tpch.Gen{SF: 0.5}.Supplier())
	_, _, err := d.RunSQLStaged(env, q, tables, scfg)
	wantOOM(t, err, "collecting partition")

	d, env, tables = budgetSession(t, smallWorker, 0.01, tpch.Gen{SF: 0.01}.Supplier())
	if _, _, err := d.RunSQLStaged(env, q, tables, scfg); err != nil {
		t.Fatalf("the partitions with a small broadcast table: %v", err)
	}
}

// TestResultOverBudgetFailsTyped: a result message is outside bytes to the
// driver. Every worker of a one-stage query posts, in place of its result,
// a 20 KB lpq file that claims ten million rows — 80 MB decoded, five times
// the 16 MiB engine budget of the worker that would have held it. The query
// fails with engine.ErrWorkerOOM, and the driver allocates less than that budget.
func TestResultOverBudgetFailsTyped(t *testing.T) {
	const memoryMiB = 208 // engine budget 16 MiB
	bomb := rleBomb(t)
	d, env, tables := budgetSession(t, memoryMiB, 0.002, tpch.Gen{SF: 0.01}.Supplier())
	err := d.dep.Lambda.CreateFunction(d.cfg.FunctionName, memoryMiB, d.cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
		var p worker.Payload
		if err := json.Unmarshal(payload, &p); err != nil {
			return err
		}
		body, err := json.Marshal(worker.Result{QueryID: p.QueryID, WorkerID: p.WorkerID, Stage: p.StageID, Attempt: p.Attempt, Epoch: p.Epoch, Chunk: bomb})
		if err != nil {
			return err
		}
		return d.dep.SQS.Send(ctx.Env, p.ResultQueue, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = d.RunSQL(env, "SELECT SUM(l_quantity) AS q FROM lineitem", "lineitem", tables["lineitem"])
	runtime.ReadMemStats(&after)
	if !errors.Is(err, engine.ErrWorkerOOM) {
		t.Errorf("err = %v, want engine.ErrWorkerOOM", err)
	}
	if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(engine.MemoryBudget(memoryMiB)); alloc > budget {
		t.Errorf("the query allocated %d MiB, past the %d MiB budget", alloc>>20, budget>>20)
	}
}

// rleBomb is one Int64 column of ten million equal values: about 20 KB of
// lpq that decodes to 80 MB, written a row group at a time.
func rleBomb(t *testing.T) []byte {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	group := columnar.NewChunk(schema, lpq.DefaultRowGroupRows)
	for range lpq.DefaultRowGroupRows {
		group.Columns[0].AppendInt64(7)
	}
	var buf bytes.Buffer
	w := lpq.NewWriter(&buf, schema, lpq.WriterOptions{})
	for n := 10_000_000; n > 0; n -= lpq.DefaultRowGroupRows {
		if err := w.Write(group.Slice(0, min(n, lpq.DefaultRowGroupRows))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
