package driver

import (
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/s3fs"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// nationRevenue joins LINEITEM (big, on S3) with SUPPLIER (small, broadcast)
// and aggregates revenue per nation.
func nationRevenue() sqlQuery {
	q := groupBy("s_nationkey", agg("SUM(l_extendedprice * (1 - l_discount))", "revenue"), agg("COUNT(*)", "n"))
	q.Joins = []sqlJoin{{"supplier", "lineitem.l_suppkey = supplier.s_suppkey"}}
	return q
}

// SUPPLIER over three files on S3, pinned into every payload and read whole
// by every worker: the fleet is the lineitem scan's, one worker per file.
func TestBroadcastJoinEndToEnd(t *testing.T) {
	c := planCase{Q: nationRevenue(), Tol: 1e-9, Layout: localLayout, Goroutines: true}
	c.Layout.Supp = 3
	runCase(t, c, wantWorkers(8), wantStages(1))
}

func TestBroadcastJoinDESDeterministic(t *testing.T) {
	l := layout{Data: 61, LI: 6, Supp: 1, Opts: lpq.WriterOptions{RowGroupRows: 2000}}
	runCase(t, planCase{Q: nationRevenue(), Tol: 1e-9, Layout: l}, wantStages(1))
}

// SUPPLIER in one file on S3, which the planner broadcasts by its footer row
// count.
func TestSQLJoinEndToEnd(t *testing.T) {
	c := planCase{Q: nationRevenue(), Tol: 1e-9, Layout: localLayout, Goroutines: true}
	c.Layout.Supp = 1
	runCase(t, c, wantWorkers(8), wantStages(1))
}

// The plan joins a table nobody registered: refused at driver-side planning,
// before any invocation.
func TestBroadcastMissingTableFails(t *testing.T) {
	c := planCase{Q: nationRevenue(), Layout: localLayout, Unregistered: "supplier", Refused: true, Goroutines: true}
	c.Layout.Supp = 1
	runCase(t, c)
}

// ORDERS filtered and LINEITEM under the broadcast limit: the planner swaps
// the sides to build on LINEITEM, and the join must still expose what it
// does on a single node — l_orderkey, which the build side's key became —
// not o_orderkey.
func TestBroadcastSwapKeepsColumns(t *testing.T) {
	q := sqlQuery{Items: []selItem{agg("MIN(l_linenumber - l_orderkey)", "m"), agg("COUNT(*)", "n")}, From: "lineitem",
		Joins: []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}}, Where: []string{"o_orderpriority < 3"}}
	runCase(t, planCase{Q: q, Layout: layout{Data: 5, LI: 2, Ord: 3, Opts: stdLayout.Opts}, Default: true}, wantStages(1))
}

// TestBuildSideBesideACollect: the join stage of LINEITEM ⋈ ORDERS shuffled
// (ORDERS' 3 040 rows over the row limit) collects both sides' partitions
// and scans SUPPLIER (20 rows, under it) as a broadcast join's build side, in
// a request window of its own, and returns what a single node does.
func TestBuildSideBesideACollect(t *testing.T) {
	q := groupBy("s_nationkey", agg("SUM(l_extendedprice * (1 - l_discount))", "revenue"), agg("COUNT(*)", "n"))
	q.Joins = []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}, {"supplier", "lineitem.l_suppkey = supplier.s_suppkey"}}
	l := layout{Data: 7, LI: 4, Ord: 2, Supp: 2, Opts: stdLayout.Opts}
	runCase(t, planCase{Q: q, Tol: 1e-9, Layout: l, Partitions: 2, BroadcastRowLimit: 1000}, wantStages(3))
}

// orderPrioritySQL joins every LINEITEM row with its ORDERS row: no filter
// on either side, so both scans read their projected column chunks whole.
const orderPrioritySQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority`

// wholeReads is what reading the named columns of every row group of a file
// whole bills: a GET per span s3fs.PlanSpans coalesces the group's column
// chunks into — one span over all of them for a build side (scan.Source.Hold)
// — and their bytes.
func wholeReads(t *testing.T, meta *lpq.FileMeta, cols []string, whole bool) (gets, bytes int64) {
	t.Helper()
	for g := range meta.RowGroups {
		var rs []s3fs.Range
		for _, c := range cols {
			ci := meta.Schema.Index(c)
			if ci < 0 {
				t.Fatalf("no column %q", c)
			}
			cc := meta.RowGroups[g].Columns[ci]
			rs = append(rs, s3fs.Range{Off: cc.Offset, Len: cc.CompressedLen})
		}
		spans := s3fs.PlanSpans(rs, s3fs.DefaultCoalesceGap)
		if whole {
			first, last := spans[0], spans[len(spans)-1]
			spans = []s3fs.Span{{Off: first.Off, Len: last.Off + last.Len - first.Off}}
		}
		for _, s := range spans {
			gets, bytes = gets+1, bytes+s.Len
		}
	}
	return gets, bytes
}

// TestBuildSideRidesTheFirstWindow: a broadcast join's worker reads its
// build side itself, in the request window of its probe side's first read.
// Each of the two LINEITEM workers of the ORDERS-broadcast join issues every
// read — its LINEITEM file's spans and one GET per ORDERS file — at one
// instant, so it pays one first-byte latency for both sides; its GETs and
// bytes are what s3fs.PlanSpans plans for each file. When the driver loaded
// the build side, that was two first-byte latencies on the query's path, the
// driver's load and then the worker's read, and no worker read ORDERS.
func TestBuildSideRidesTheFirstWindow(t *testing.T) {
	var rep *Report
	var pinned TableFiles
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 71)
		dep.EnableTracing(obs.New())
		return dep
	}, desConfig(), layout{Data: 33, LI: 2, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
		if _, rep, err = sess.RunSQLStaged(p, orderPrioritySQL, tables, DefaultStageConfig()); err != nil {
			return err
		}
		pinned = TableFiles{}
		for name, files := range tables {
			if pinned[name], err = scan.New(s3.NewClient(sess.dep.S3, p), scan.DefaultConfig(), files...).Pin(files); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages != 1 || rep.Workers != 2 {
		t.Fatalf("%d workers in %d stages, want ORDERS broadcast to the 2 LINEITEM workers", rep.Workers, rep.Stages)
	}
	meta := func(f scan.FileRef) *lpq.FileMeta {
		r, err := lpq.OpenTail(nil, f.Size, f.Footer)
		if err != nil {
			t.Fatal(err)
		}
		return r.Meta()
	}
	var buildGets, buildBytes int64
	for _, f := range pinned["orders"] {
		g, b := wholeReads(t, meta(f), []string{"o_orderkey", "o_orderpriority"}, true)
		buildGets, buildBytes = buildGets+g, buildBytes+b
	}

	type reads struct {
		starts      []time.Duration
		gets, bytes int64
	}
	spans := rep.Trace.Spans()
	byWorker := map[int]*reads{}
	obs.NewTree(spans).Walk(rep.Span, func(s *obs.Span) {
		if s.Kind != obs.KindOp || s.Name != "s3.getrange" {
			return
		}
		inv := s.Parent
		for inv != 0 && spans[inv-1].Kind != obs.KindInvoke {
			inv = spans[inv-1].Parent
		}
		if inv == 0 {
			return // the driver's
		}
		w, err := strconv.Atoi(spans[inv-1].Tags["worker"])
		if err != nil {
			t.Fatal(err)
		}
		r := byWorker[w]
		if r == nil {
			r = &reads{}
			byWorker[w] = r
		}
		r.starts = append(r.starts, s.Start)
		r.gets, r.bytes = r.gets+s.Cost.S3Get, r.bytes+s.Cost.S3ReadBytes
	})
	if len(byWorker) != 2 {
		t.Fatalf("%d workers read, want 2", len(byWorker))
	}
	for w, r := range byWorker {
		gets, bytes := wholeReads(t, meta(pinned["lineitem"][w]), []string{"l_orderkey", "l_extendedprice"}, false)
		gets, bytes = gets+buildGets, bytes+buildBytes
		if slices.Min(r.starts) != slices.Max(r.starts) {
			t.Errorf("worker %d: %d reads starting %v, want one request window", w, len(r.starts), r.starts)
		}
		if r.gets != gets || r.bytes != bytes {
			t.Errorf("worker %d: %d GETs, %d bytes; want its LINEITEM file's and every ORDERS file's, %d, %d",
				w, r.gets, r.bytes, gets, bytes)
		}
	}
}

// TestPlanReadsNoTableData: the driver reads no table data. A broadcast
// query's planning reads are its footer opens — the six files of its two
// tables, cold — and, warm, none: the session knows the footers, and the
// build side is the workers' to read. When the driver loaded the build side
// it billed one GET per ORDERS file on top, warm or cold.
func TestPlanReadsNoTableData(t *testing.T) {
	var reps []*Report
	footerSession(t, func(p *simclock.Proc, sess *Session, tables TableFiles, _ StageConfig) {
		for range 2 {
			out, rep, err := sess.RunSQLStaged(p, q12ExactSQL, tables, DefaultStageConfig())
			if err != nil {
				t.Error(err)
				return
			}
			chunksIdentical(t, out, singleNode(t, q12ExactSQL, tpchData(33).catalog()))
			reps = append(reps, rep)
		}
	})
	if len(reps) != 2 {
		t.FailNow()
	}
	for i, want := range []int64{6, 0} {
		if reps[i].Stages != 1 {
			t.Errorf("query %d: %d stages, want ORDERS broadcast", i+1, reps[i].Stages)
		}
		if reads, _ := planningReads(t, reps[i]); reads != want {
			t.Errorf("query %d: the driver billed %d S3 reads before its first worker started, want %d", i+1, reads, want)
		}
	}
}

// TestBroadcastPayloadUnderLambdaLimit: every payload of a broadcast q12
// shaped like serve_mixed's host half — SF 0.02, LINEITEM and ORDERS in eight
// paged files each — is under Lambda's asynchronous invocation limit, which
// the service enforces: the build side rides as pinned footers. Shipped as
// an lpq blob, ORDERS made each payload about 644 KB, and the Invoke was
// refused.
func TestBroadcastPayloadUnderLambdaLimit(t *testing.T) {
	dep := NewLocal()
	cfg := DefaultConfig()
	sess := NewSession(dep, cfg)
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	largest := 0
	err := dep.Lambda.CreateFunction(cfg.FunctionName, cfg.WorkerMemoryMiB, cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
		mu.Lock()
		largest = max(largest, len(payload))
		mu.Unlock()
		return sess.workerHandler(ctx, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	env := simenv.NewImmediate()
	opts := lpq.WriterOptions{RowGroupRows: 8192, PageRows: 2048, Compression: lpq.Gzip}
	g := tpch.Gen{SF: 0.02, Seed: 33}
	li := g.Generate()
	tables := TableFiles{}
	for name, data := range map[string]*columnar.Chunk{"lineitem": li, "orders": g.OrdersFor(li)} {
		if tables[name], err = sess.UploadTable(env, "tpch", name, data, 8, opts); err != nil {
			t.Fatal(err)
		}
	}
	out, rep, err := sess.RunSQLStaged(env, q12ExactSQL, tables, DefaultStageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages != 1 {
		t.Fatalf("%d stages, want ORDERS broadcast", rep.Stages)
	}
	chunksIdentical(t, out, singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(li.Schema, li), "orders": engine.NewMemSource(tpch.OrdersSchema(), g.OrdersFor(li))}))
	mu.Lock()
	defer mu.Unlock()
	if largest == 0 || largest > lambdasvc.MaxAsyncPayloadBytes {
		t.Errorf("largest payload %d bytes, want one under %d", largest, lambdasvc.MaxAsyncPayloadBytes)
	}
}
