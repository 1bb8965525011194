package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
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
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
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

// buildBesideCollect joins LINEITEM with ORDERS and SUPPLIER. At a row limit
// of 1 000 over SF 0.002 ORDERS shuffles and SUPPLIER broadcasts.
func buildBesideCollect() sqlQuery {
	q := groupBy("s_nationkey", agg("SUM(l_extendedprice * (1 - l_discount))", "revenue"), agg("COUNT(*)", "n"))
	q.Joins = []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}, {"supplier", "lineitem.l_suppkey = supplier.s_suppkey"}}
	return q
}

// TestBuildSideBesideACollect: the join stage of LINEITEM ⋈ ORDERS shuffled
// (ORDERS' 3 040 rows over the row limit) collects both sides' partitions
// and scans SUPPLIER (20 rows, under it) as a broadcast join's build side, in
// a request window of its own, and returns what a single node does.
func TestBuildSideBesideACollect(t *testing.T) {
	l := layout{Data: 7, LI: 4, Ord: 2, Supp: 2, Opts: stdLayout.Opts}
	runCase(t, planCase{Q: buildBesideCollect(), Tol: 1e-9, Layout: l, Partitions: 2, BroadcastRowLimit: 1000}, wantStages(3))
}

// A self-join never broadcasts: a worker gets one file list per table, its
// share of its stage's own table, so a build side of that table could not be
// read whole. SUPPLIER over two files, under the row limit, shuffles both
// sides and returns what a single node does. So does LINEITEM joined on
// l_orderkey with its rows shipped before day 600: the filter alone keeps
// one file of four, but the table's one file list serves both scans, so it
// prunes none.
func TestSelfJoinShuffles(t *testing.T) {
	l := layout{Data: 7, LI: 4, Supp: 2, Opts: stdLayout.Opts}
	cat := tpchData(l.Data).catalog()
	scfg := DefaultStageConfig()
	scfg.Partitions, scfg.BroadcastRowLimit = 2, 1<<20
	parse := func(sql string) engine.Plan {
		p, err := sqlfe.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name    string
		plan    func() engine.Plan // fresh each call: planning rewrites it
		workers int
	}{
		{"supplier", func() engine.Plan {
			return parse("SELECT COUNT(*) AS n FROM supplier JOIN supplier ON s_nationkey = s_nationkey")
		}, 2 + 2 + 2},
		{"lineitem", func() engine.Plan {
			return &engine.AggregatePlan{In: &engine.JoinPlan{
				Left:     parse("SELECT l_orderkey FROM lineitem WHERE l_shipdate < 600"),
				Right:    parse("SELECT l_orderkey FROM lineitem"),
				LeftKeys: []string{"l_orderkey"}, RightKeys: []string{"l_orderkey"},
			}, Aggs: []engine.AggSpec{{Func: engine.AggCount, Name: "n"}}}
		}, 4 + 4 + 2},
	} {
		opt, err := engine.Optimize(c.plan(), cat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Execute(opt, cat)
		if err != nil {
			t.Fatal(err)
		}
		_, err = onDES(simulated(71), desConfig(), l, func(p *simclock.Proc, sess *Session, tables TableFiles) error {
			got, rep, err := sess.Run(p, c.plan(), tables, scfg)
			if err != nil {
				return err
			}
			var shape error
			if rep.Stages != 3 || rep.Workers != c.workers {
				shape = fmt.Errorf("%d stages, %d workers; want 3 (two scans and the join), %d", rep.Stages, rep.Workers, c.workers)
			}
			return errors.Join(sameRows(got, want, 0), shape)
		})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// buildSides lists the base tables st's fragment scans beside its own: the
// build sides of its broadcast joins, the only other tables a stage scans.
func buildSides(st *stageplan.Stage) []string {
	var out []string
	engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
		if s.Table != st.Table && !slices.ContainsFunc(st.Inputs, func(in stageplan.Input) bool { return in.Table == s.Table }) {
			out = append(out, s.Table)
		}
	})
	return out
}

// TestPayloadTables: every Invoke body of the broadcast q12, of
// TestBuildSideBesideACollect's plan and of an aggregate repartitioned over
// a two-level boundary carries under "tables" exactly the base tables its
// fragment scans, and no "tables" key when it scans none: a regroup or
// final-merge task. The shares of a stage's own table, in worker order, are
// the files the planner kept, as it pinned them; every worker of a stage
// gets every file of its broadcast build side.
func TestPayloadTables(t *testing.T) {
	var bodies [][]byte // the kernel runs one process at a time
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 71)
		dep.EnableTracing(obs.New()) // the report's Plan
		return dep
	}, desConfig(), layout{Data: 7, LI: 4, Ord: 2, Supp: 2, Opts: stdLayout.Opts},
		func(p *simclock.Proc, sess *Session, tables TableFiles) error {
			err := sess.dep.Lambda.CreateFunction(sess.cfg.FunctionName, sess.cfg.WorkerMemoryMiB, sess.cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
				bodies = append(bodies, payload)
				return sess.workerHandler(ctx, payload)
			})
			if err != nil {
				return err
			}
			beside := DefaultStageConfig()
			beside.Partitions, beside.BroadcastRowLimit = 2, 1000
			regrouped := shuffled(2)
			regrouped.Exchange.Variant.Levels = 2
			var regroups, merges int
			for _, run := range []struct {
				sql  string
				scfg StageConfig
			}{
				{q12ExactSQL, DefaultStageConfig()},
				{buildBesideCollect().SQL(), beside},
				{"SELECT l_partkey, COUNT(*) AS n FROM lineitem GROUP BY l_partkey", regrouped},
			} {
				bodies = nil
				_, rep, err := sess.RunSQLStaged(p, run.sql, tables, run.scfg)
				if err != nil {
					return err
				}
				for _, st := range rep.Plan.Stages {
					if _, ok := st.RegroupOf(); ok {
						regroups++
					} else if st.Table == "" && len(buildSides(st)) == 0 {
						merges++
					}
				}
				checkPayloadTables(t, s3.NewClient(sess.dep.S3, p), rep.Plan, tables, bodies)
			}
			if regroups == 0 || merges == 0 {
				t.Errorf("%d regroup and %d merge stages, want some of each", regroups, merges)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// checkPayloadTables holds the Invoke bodies of one query on sp, over the
// uploaded tables, to TestPayloadTables's contract.
func checkPayloadTables(t *testing.T, client *s3.Client, sp *stageplan.Plan, tables TableFiles, bodies [][]byte) {
	t.Helper()
	pinned := TableFiles{}
	for name, files := range tables {
		var err error
		if pinned[name], err = scan.New(client, scan.DefaultConfig(), files...).Pin(files); err != nil {
			t.Fatal(err)
		}
	}
	shares := map[int][][]scan.FileRef{}
	for _, body := range bodies {
		var p workerPayload
		var keys map[string]json.RawMessage
		if err := errors.Join(json.Unmarshal(body, &p), json.Unmarshal(body, &keys)); err != nil {
			t.Fatal(err)
		}
		st := sp.Stages[slices.IndexFunc(sp.Stages, func(st *stageplan.Stage) bool { return st.ID == p.StageID })]
		want := buildSides(st)
		if st.Table != "" {
			want = append(want, st.Table)
		}
		sort.Strings(want)
		if _, ok := keys["tables"]; ok != (len(want) > 0) || !slices.Equal(sortedStringKeys(p.Tables), want) {
			t.Errorf("stage %d worker %d: tables %v (key present: %t), want %v", st.ID, p.WorkerID, sortedStringKeys(p.Tables), ok, want)
		}
		for _, name := range buildSides(st) {
			if !reflect.DeepEqual(p.Tables[name], pinned[name]) {
				t.Errorf("stage %d worker %d: build side %q of %d files, want all %d", st.ID, p.WorkerID, name, len(p.Tables[name]), len(pinned[name]))
			}
		}
		if st.Table != "" {
			if shares[st.ID] == nil {
				shares[st.ID] = make([][]scan.FileRef, p.NumWorkers)
			}
			shares[st.ID][p.WorkerID] = p.Tables[st.Table]
		}
	}
	for _, st := range sp.Stages {
		if st.Table == "" {
			continue
		}
		var prune []lpq.Predicate
		engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
			if s.Table == st.Table {
				prune = s.Prune
			}
		})
		var kept []scan.FileRef
		for _, f := range pinned[st.Table] {
			r, err := lpq.OpenTail(nil, f.Size, f.Footer)
			if err != nil {
				t.Fatal(err)
			}
			if len(prune) == 0 || lpq.EstimateRows(r.Meta(), prune) > 0 {
				kept = append(kept, f)
			}
		}
		if got := slices.Concat(shares[st.ID]...); len(got) == 0 || !reflect.DeepEqual(got, kept) {
			t.Errorf("stage %d: its workers' shares of %q are %d files, want the %d the planner kept, in order", st.ID, st.Table, len(got), len(kept))
		}
	}
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
