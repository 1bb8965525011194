package driver

import (
	"errors"
	"math"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// planningReads returns the S3 reads a traced query billed before its first
// worker started — the driver's planning reads — and the offset of that
// start from the query's.
func planningReads(t *testing.T, rep *Report) (reads int64, launch time.Duration) {
	t.Helper()
	tree := obs.NewTree(rep.Trace.Spans())
	first := time.Duration(math.MaxInt64)
	tree.Walk(rep.Span, func(s *obs.Span) {
		if (s.Name == "cold-start" || s.Name == "warm") && s.Start < first {
			first = s.Start
		}
	})
	if first == math.MaxInt64 {
		t.Fatalf("%s: no worker start in the trace", rep.QueryID)
	}
	var start time.Duration
	tree.Walk(rep.Span, func(s *obs.Span) {
		if s.ID == rep.Span {
			start = s.Start
		}
		if s.Start < first {
			reads += s.Cost.S3Get
		}
	})
	return reads, first - start
}

// footerSession runs body on a traced DES session over lineitem in four
// files and orders in two, with the stage configuration the tests below run
// q12 with.
func footerSession(t *testing.T, body func(p *simclock.Proc, sess *Session, tables TableFiles, scfg StageConfig)) {
	t.Helper()
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 71)
		dep.EnableTracing(obs.New())
		return dep
	}, desConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, sess *Session, tables TableFiles) error {
		body(p, sess, tables, scfg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionReadsFootersOnce: the first query on a session opens the six
// files its plan scans in one request window — six reads, a launch well
// inside what twelve serial requests took — and every later query, staged or
// single-scope, bills no S3 read at all before its first worker starts, with
// a byte-identical result. InvalidateTable drops the footers with the
// results: the next query pays the window again.
func TestSessionReadsFootersOnce(t *testing.T) {
	var outs []*columnar.Chunk
	var reps []*Report
	footerSession(t, func(p *simclock.Proc, sess *Session, tables TableFiles, scfg StageConfig) {
		staged := func() {
			out, rep, err := sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			if err != nil {
				t.Error(err)
			}
			outs, reps = append(outs, out), append(reps, rep)
		}
		staged()
		staged()
		out, rep, err := sess.RunSQL(p, launchMatrixSQL, "lineitem", tables["lineitem"])
		if err != nil {
			t.Error(err)
		}
		outs, reps = append(outs, out), append(reps, rep)
		sess.InvalidateTable("orders")
		staged()
	})
	if t.Failed() {
		t.FailNow()
	}
	cat := tpchData(33).catalog()
	for _, i := range []int{0, 1, 3} {
		chunksIdentical(t, outs[i], singleNode(t, q12ExactSQL, cat))
	}
	chunksIdentical(t, outs[2], singleNode(t, launchMatrixSQL, cat))

	var launches []time.Duration
	for i, wantReads := range []int64{6, 0, 0, 6} {
		reads, launch := planningReads(t, reps[i])
		if reads != wantReads {
			t.Errorf("query %d billed %d S3 reads before its first worker started, want %d", i+1, reads, wantReads)
		}
		launches = append(launches, launch)
	}
	// Six opens in one window are one first-byte latency; serially, with a
	// HEAD each, they were twelve (≈ 0.4 s).
	if launches[0] > 250*time.Millisecond || launches[1] >= launches[0] {
		t.Errorf("first worker started at +%v cold, +%v with the footers known", launches[0], launches[1])
	}
	if got, want := reps[1].Cost.S3Get, reps[0].Cost.S3Get-6; got != want {
		t.Errorf("second query billed %d S3 reads, want the first one's less its six opens (%d)", got, want)
	}
}

// TestConcurrentColdQueriesBothRead: two staged queries started at the same
// virtual instant on a session that knows no footer both miss, both read —
// neither waits for the other's open, which under DES would be a process
// blocked on a lock that a parked process holds — and both finish with the
// serial answer.
func TestConcurrentColdQueriesBothRead(t *testing.T) {
	c := planCase{Q: q12Exact(), Layout: layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, Partitions: 2, BroadcastRowLimit: -1}
	queries := []*queryRun{{c: c}, {c: c}}
	footerSession(t, func(p *simclock.Proc, sess *Session, tables TableFiles, _ StageConfig) {
		runConcurrently(p, sess, tables, queries)
	})
	for i, q := range queries {
		if err := q.check(true); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if reads, _ := planningReads(t, q.rep); reads != 6 {
			t.Errorf("query %d billed %d planning reads, want its own 6", i, reads)
		}
	}
}

// TestInvalidationDuringPlanningStoresNothing: an invalidation that lands
// while a query's opens are in flight — issued before it, answered after —
// leaves no footer behind (the objects may have been overwritten in
// between): the query itself is none the worse, and the next one pays the
// window again.
func TestInvalidationDuringPlanningStoresNothing(t *testing.T) {
	var outs []*columnar.Chunk
	var reps []*Report
	footerSession(t, func(p *simclock.Proc, sess *Session, tables TableFiles, scfg StageConfig) {
		p.Kernel().Go("invalidate", func(q *simclock.Proc) {
			q.Sleep(5 * time.Millisecond) // every first-byte latency is longer
			sess.InvalidateResultCache()
		})
		for i := 0; i < 2; i++ {
			out, rep, err := sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			if err != nil {
				t.Error(err)
			}
			outs, reps = append(outs, out), append(reps, rep)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	want := singleNode(t, q12ExactSQL, tpchData(33).catalog())
	for i, rep := range reps {
		chunksIdentical(t, outs[i], want)
		if reads, _ := planningReads(t, rep); reads != 6 {
			t.Errorf("query %d billed %d planning reads, want 6: the first one's opens straddled the invalidation", i+1, reads)
		}
	}
}

// TestReuploadDropsFooters: a table re-uploaded under the same prefix keeps
// its file references, so only UploadTable's invalidation stands between the
// planner and the old footers. The old data lies wholly before a date, the
// new wholly on or after it: with the old statistics the planner would prune
// every file of a query for the later dates and scan one, and answer wrong.
func TestReuploadDropsFooters(t *testing.T) {
	const sql = `
SELECT l_returnflag, COUNT(*) AS n, SUM(l_linenumber) AS lines
FROM lineitem WHERE l_shipdate >= DATE '1995-06-01'
GROUP BY l_returnflag ORDER BY l_returnflag`
	all := tpch.Gen{SF: 0.002, Seed: 33}.Generate()
	ship := all.Columns[all.Schema.Index("l_shipdate")].Int64s
	var early, late []int
	for i, d := range ship {
		if d < tpch.Date(1995, 6, 1) {
			early = append(early, i)
		} else {
			late = append(late, i)
		}
	}
	sess := NewSession(NewLocal(), DefaultConfig())
	env := simenv.NewImmediate()
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	// run uploads data as the table's four files, checks the query against a
	// single node over data, and returns its row count and scan fleet.
	run := func(data *columnar.Chunk) (rows, scanWorkers int) {
		t.Helper()
		refs, err := sess.UploadTable(env, "tpch", "lineitem", data, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil || len(refs) != 4 {
			t.Fatalf("upload: %d files, %v", len(refs), err)
		}
		out, rep, err := sess.RunSQLStaged(env, sql, TableFiles{"lineitem": refs}, DefaultStageConfig())
		if err != nil {
			t.Fatal(err)
		}
		chunksIdentical(t, out, singleNode(t, sql, engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)}))
		for _, st := range rep.StageStats {
			if st.StageID == 0 {
				scanWorkers = st.Workers
			}
		}
		return out.NumRows(), scanWorkers
	}
	if rows, workers := run(all.Gather(early)); rows != 0 || workers != 1 {
		t.Fatalf("early data: %d rows from %d scan workers, want every file but one pruned and no row", rows, workers)
	}
	if rows, workers := run(all.Gather(late)); rows == 0 || workers != 4 {
		t.Errorf("late data under the same prefix: %d rows from %d scan workers, want all four files scanned", rows, workers)
	}
}

// TestPrunedWorkerReadsNothing: a query whose predicates prune every file
// still launches one scan worker, so that its stage seals; that worker prunes
// the footer its payload carries and bills no S3 request at all. Cold, the
// query's only reads are the planner's four opens; on a session that knows
// the footers it reads nothing.
func TestPrunedWorkerReadsNothing(t *testing.T) {
	const sql = `SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate >= DATE '2100-01-01'`
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Opts: gzipLayout.Opts})
	want := singleNode(t, sql, tpchData(33).catalog())
	for i, wantReads := range []int64{4, 0} {
		before := d.dep.Meter.Count(pricing.LabelS3Read)
		out, rep, err := d.RunSQL(env, sql, "lineitem", tables["lineitem"])
		if err != nil {
			t.Fatal(err)
		}
		chunksIdentical(t, out, want)
		if rep.Workers != 1 {
			t.Errorf("query %d launched %d workers, want the one kept alive", i+1, rep.Workers)
		}
		if n := d.dep.Meter.Count(pricing.LabelS3Read) - before; n != wantReads {
			t.Errorf("query %d billed %d S3 reads, want %d", i+1, n, wantReads)
		}
	}
}

// TestPlanningReadsOnlyScannedTables: a registered table the plan does not
// scan is not read, so a file of it that is missing cannot fail the query;
// a plan over a table that is not registered does not plan, and is refused
// before it has billed a read.
func TestPlanningReadsOnlyScannedTables(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: gzipLayout.Opts})
	tables["orders"] = []scan.FileRef{{Bucket: "tpch", Key: "orders/gone.lpq"}}
	out, _, err := d.RunSQLStaged(env, launchMatrixSQL, tables, DefaultStageConfig())
	if err != nil {
		t.Fatalf("query over lineitem with a file of orders missing: %v", err)
	}
	chunksIdentical(t, out, singleNode(t, launchMatrixSQL, tpchData(33).catalog()))

	before := d.dep.Meter.Count(pricing.LabelS3Read)
	_, _, err = d.RunSQLStaged(env, q12ExactSQL, TableFiles{"lineitem": tables["lineitem"]}, DefaultStageConfig())
	if !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("q12 without orders registered: %v, want ErrInvalidPlan", err)
	}
	if n := d.dep.Meter.Count(pricing.LabelS3Read) - before; n != 0 {
		t.Errorf("the refused plan billed %d S3 reads", n)
	}
}
