package driver

import (
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// runStagedCost executes the selective-predicate q12 under DES with the
// given file layout and scan-config mutation, returning the result chunk
// and the run's billed S3 counters.
func runStagedCost(t *testing.T, liOpts, ordOpts lpq.WriterOptions, mutate func(*Config), wc bool) (*columnar.Chunk, *Report, *columnar.Chunk, *columnar.Chunk) {
	t.Helper()
	k := simclock.New()
	dep := NewSimulated(k, 47)
	var out *columnar.Chunk
	var rep *Report
	var li, orders *columnar.Chunk
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li = g.Generate()
		orders = g.OrdersFor(li)
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 6, liOpts)
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", orders, 3, ordOpts)
		if err != nil {
			t.Error(err)
			return
		}
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.ExchangeLevels = 1
		out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("staged q12 failed: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}
	return out, rep, li, orders
}

// TestStagedSelectiveScanCostGuard is the acceptance-criterion test of the
// price-aware scan layer: staged q12 (selective l_receiptdate range) on v2
// paged files with late materialization and coalescing must bill strictly
// fewer S3 GETs AND strictly fewer S3 bytes than the pre-page-index
// pattern — v1 files, one GET per column chunk, no late materialization —
// at byte-identical results, on both exchange variants, deterministically
// across repeated DES runs.
func TestStagedSelectiveScanCostGuard(t *testing.T) {
	baseOpts := lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip, FormatV1: true}
	baseMut := func(c *Config) {
		c.Scan.CoalesceGapBytes = -1
		c.Scan.DisableLateMaterialize = true
	}
	// The filtered fact table is paged for fine-grained pruning; the
	// unfiltered orders table keeps the default layout (unpaged chunks —
	// paging an always-fully-read table would only cost compression ratio).
	liOpts := lpq.WriterOptions{RowGroupRows: 2000, PageRows: 512, Compression: lpq.Gzip}
	ordOpts := lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}

	for _, wc := range []bool{false, true} {
		baseOut, baseRep, li, orders := runStagedCost(t, baseOpts, baseOpts, baseMut, wc)
		newOut, newRep, _, _ := runStagedCost(t, liOpts, ordOpts, nil, wc)
		newOut2, newRep2, _, _ := runStagedCost(t, liOpts, ordOpts, nil, wc)

		want := singleNode(t, q12ExactSQL, engine.Catalog{
			"lineitem": engine.NewMemSource(tpch.Schema(), li),
			"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
		})
		chunksIdentical(t, baseOut, want)
		chunksIdentical(t, newOut, want)
		chunksIdentical(t, newOut2, want)

		if baseRep.Cost.S3Get <= 0 || baseRep.Cost.S3ReadBytes <= 0 {
			t.Fatalf("wc=%v: baseline counters not recorded: %d GETs, %d bytes",
				wc, baseRep.Cost.S3Get, baseRep.Cost.S3ReadBytes)
		}
		if newRep.Cost.S3Get >= baseRep.Cost.S3Get {
			t.Errorf("wc=%v: billed GETs = %d, baseline = %d — want strictly fewer",
				wc, newRep.Cost.S3Get, baseRep.Cost.S3Get)
		}
		if newRep.Cost.S3ReadBytes >= baseRep.Cost.S3ReadBytes {
			t.Errorf("wc=%v: billed bytes = %d, baseline = %d — want strictly fewer",
				wc, newRep.Cost.S3ReadBytes, baseRep.Cost.S3ReadBytes)
		}
		if newRep.Cost.S3Get != newRep2.Cost.S3Get || newRep.Cost.S3ReadBytes != newRep2.Cost.S3ReadBytes {
			t.Errorf("wc=%v: billing not deterministic: (%d, %d) vs (%d, %d)",
				wc, newRep.Cost.S3Get, newRep.Cost.S3ReadBytes, newRep2.Cost.S3Get, newRep2.Cost.S3ReadBytes)
		}
	}
}

// requestLabels are the pricing labels billed per request.
var requestLabels = []string{
	pricing.LabelS3Read, pricing.LabelS3Write, pricing.LabelS3List,
	pricing.LabelSQS, pricing.LabelDynamoRead, pricing.LabelDynamoWrite,
}

// billedRequests runs one query on a fresh DES deployment (fixed seeds, 4
// lineitem and 2 orders files; mutate, when non-nil, edits the driver
// config) and returns the integer billed-request count per pricing label of
// the query alone — uploads excluded.
func billedRequests(t *testing.T, mutate func(*Config), query func(d *Driver, tables TableFiles) error) map[string]int64 {
	t.Helper()
	k := simclock.New()
	dep := NewSimulated(k, 47)
	got := map[string]int64{}
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		if mutate != nil {
			mutate(&cfg)
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li := g.Generate()
		opts := lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 4, opts)
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", g.OrdersFor(li), 2, opts)
		if err != nil {
			t.Error(err)
			return
		}
		labels := append([]string{pricing.LabelLambdaRequests}, requestLabels...)
		before := map[string]int64{}
		for _, l := range labels {
			before[l] = dep.Meter.Count(l)
		}
		if err := query(d, TableFiles{"lineitem": liRefs, "orders": ordRefs}); err != nil {
			t.Error(err)
			return
		}
		for _, l := range labels {
			got[l] = dep.Meter.Count(l) - before[l]
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}
	return got
}

// assertRequests compares every per-request label, and the Lambda request
// count on the rows that record one.
func assertRequests(t *testing.T, name string, got, want map[string]int64) {
	t.Helper()
	labels := requestLabels
	if _, ok := want[pricing.LabelLambdaRequests]; ok {
		labels = append([]string{pricing.LabelLambdaRequests}, labels...)
	}
	for _, l := range labels {
		if got[l] != want[l] {
			t.Errorf("%s: %s = %d billed requests, want %d", name, l, got[l], want[l])
		}
	}
}

// TestExecutorRequestGuard pins what a query bills per pricing label, as
// recorded on the commit before single-scope queries moved onto the stage
// scheduler (PR 13). A plan without boundaries pays for no boundary
// machinery — zero DynamoDB requests, zero S3 LISTs, the same GETs and SQS
// polls as the collector it replaced — and a staged plan sheds exactly the
// one DynamoDB write of the result stage's ready marker nobody read.
//
// Every S3 read count below was re-recorded in PR 20 and fell by exactly one
// per file open, the driver's and the workers' alike: an open is one suffix
// read that returns the size with the footer, where it was a HEAD and then
// the footer GET. The rows name their opens. The SQS and DynamoDB-read counts
// next to them are polls: the driver plans in one request window instead of
// two serial requests per file and the workers start a round trip sooner, so
// stages seal a few timed polls earlier or later — recorded as measured.
//
// PR 24 re-recorded every row for one cause: there is one planner. A query
// through RunSQL is planned like any other — the driver opens every file
// (not the first alone) and launches no worker for a file its predicates
// prune — and q12's aggregate merges on the driver, because the footers bound
// o_orderpriority to five groups: its final stage, that stage's boundary and
// the regroup round of that boundary are gone from every q12 row (4 → 3
// stages). The timing-free counts (Lambda, S3, DynamoDB writes) fell by
// exactly those fleets' requests; the polls are as measured.
func TestExecutorRequestGuard(t *testing.T) {
	single := func(sql string) func(*Driver, TableFiles) error {
		return func(d *Driver, tables TableFiles) error {
			_, _, err := d.RunSQL(sql, "lineitem", tables["lineitem"])
			return err
		}
	}
	// q1 prunes no file: eight opens, the planner's four and one per worker
	// (21 → 24 S3 reads: the parent's driver opened the first file only; SQS
	// 21 → 20). q6's year leaves one file of four: five opens, the planner's
	// and the one worker's (S3 reads 13 as before, three workers' opens
	// traded for the planner's; one Invoke, not four; SQS 18 → 11).
	assertRequests(t, "q1", billedRequests(t, nil, single(q1SQL)), map[string]int64{
		pricing.LabelLambdaRequests: 4, pricing.LabelS3Read: 24, pricing.LabelSQS: 20,
	})
	q6 := billedRequests(t, nil, single(q6SQL))
	assertRequests(t, "q6", q6, map[string]int64{
		pricing.LabelLambdaRequests: 1, pricing.LabelS3Read: 13, pricing.LabelSQS: 11,
	})

	// The rules follow the plan, not the entrance: q6 through the other
	// entrance is the same one stage without a boundary, and bills the same.
	assertRequests(t, "q6, RunSQLStaged", billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
		_, rep, err := d.RunSQLStaged(q6SQL, TableFiles{"lineitem": tables["lineitem"]}, DefaultStageConfig())
		if err == nil && (rep.Stages != 1 || rep.Epoch != 0) {
			t.Errorf("q6, RunSQLStaged: stages = %d, epoch = %d, want one unfenced stage", rep.Stages, rep.Epoch)
		}
		return err
	}), q6)

	// Planning reads the tables the plan scans and no others: with orders
	// registered next to lineitem, staged q1 bills what it bills without it —
	// the parent read the two orders footers as well, four requests for
	// nothing.
	stagedQ1 := func(with ...string) map[string]int64 {
		return billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
			registered := TableFiles{}
			for _, name := range with {
				registered[name] = tables[name]
			}
			_, _, err := d.RunSQLStaged(q1SQL, registered, DefaultStageConfig())
			return err
		})
	}
	assertRequests(t, "staged q1, orders registered", stagedQ1("lineitem", "orders"), stagedQ1("lineitem"))

	staged := billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		_, _, err := d.RunSQLStaged(q12ExactSQL, tables, scfg)
		return err
	})
	// Three stages — scan, scan, join+partial — and ten opens: the planner's
	// six (four lineitem files, two orders) and the scan workers' four. The
	// three DynamoDB writes are the epoch fence and the two scan stages' ready
	// markers; nobody waits on the join stage, which posts to the driver.
	// Against the four-stage plan: six Invokes, not eight; 38 → 34 S3 reads,
	// 6 → 4 writes and 22 → 20 LISTs (the final stage's two collects); polls
	// SQS 30 → 24, DynamoDB reads 18 → 8.
	assertRequests(t, "staged q12", staged, map[string]int64{
		pricing.LabelLambdaRequests: 6,
		pricing.LabelS3Read:         34, pricing.LabelS3Write: 4, pricing.LabelS3List: 20,
		pricing.LabelSQS: 24, pricing.LabelDynamoRead: 8, pricing.LabelDynamoWrite: 3,
	})

	// ORDERS broadcast: the driver reads the table through the source the
	// planner opened it with, and with the merge on the driver nothing is left
	// to shuffle — one stage, no boundary, so rule 1 gives it no DynamoDB
	// request and no LIST at all. Eight opens, the planner's six and the two
	// lineitem workers' (26 → 22 S3 reads: the final stage's collects).
	assertRequests(t, "staged q12, orders broadcast", billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.Exchange.Poll = 100 * time.Millisecond
		_, rep, err := d.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err == nil && rep.Stages != 1 {
			t.Errorf("staged q12, orders broadcast: %d stages, want 1 (orders not broadcast?)", rep.Stages)
		}
		return err
	}), map[string]int64{
		pricing.LabelLambdaRequests: 2, pricing.LabelS3Read: 22, pricing.LabelSQS: 13,
	})

	// Multi-level boundaries and admission-capped launch: the two scan
	// boundaries with a regroup fleet of two each — ten Invokes (the
	// four-stage plan's fourteen had the final stage and the join boundary's
	// regroup fleet), five DynamoDB writes (the fence, and a marker per scan
	// stage and per regroup fleet). The S3, DynamoDB-write and Lambda counts
	// are timing-free; the SQS and DynamoDB-read counts are polls and move
	// with the launch schedule — recorded as measured.
	twoLevel := func(wc bool) func(*Driver, TableFiles) error {
		return func(d *Driver, tables TableFiles) error {
			scfg := DefaultStageConfig()
			scfg.Partitions = 2
			scfg.BroadcastRowLimit = -1
			scfg.Exchange.Poll = 100 * time.Millisecond
			scfg.Exchange.Variant.WriteCombining = wc
			scfg.ExchangeLevels = 2
			_, _, err := d.RunSQLStaged(q12ExactSQL, tables, scfg)
			return err
		}
	}
	assertRequests(t, "staged q12 2l", billedRequests(t, nil, twoLevel(false)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         38, pricing.LabelS3Write: 20, pricing.LabelS3List: 24,
		pricing.LabelSQS: 32, pricing.LabelDynamoRead: 29, pricing.LabelDynamoWrite: 5,
	})
	assertRequests(t, "staged q12 2l-wc", billedRequests(t, nil, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         38, pricing.LabelS3Write: 8, pricing.LabelS3List: 24,
		pricing.LabelSQS: 33, pricing.LabelDynamoRead: 20, pricing.LabelDynamoWrite: 5,
	})
	capped := func(c *Config) { c.MaxInFlight = 2 }
	assertRequests(t, "staged q12 2l-wc, MaxInFlight 2", billedRequests(t, capped, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         38, pricing.LabelS3Write: 8, pricing.LabelS3List: 24,
		pricing.LabelSQS: 46, pricing.LabelDynamoRead: 11, pricing.LabelDynamoWrite: 5,
	})
}
