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
func TestExecutorRequestGuard(t *testing.T) {
	single := func(sql string) func(*Driver, TableFiles) error {
		return func(d *Driver, tables TableFiles) error {
			_, _, err := d.RunSQL(sql, "lineitem", tables["lineitem"])
			return err
		}
	}
	// Five opens each: the driver's of the first file, for the schema, and
	// one per worker (26 → 21 and 18 → 13 S3 reads; SQS 22 → 21 and 20 → 18).
	assertRequests(t, "single-scope q1", billedRequests(t, nil, single(q1SQL)), map[string]int64{
		pricing.LabelS3Read: 21, pricing.LabelSQS: 21,
	})
	assertRequests(t, "single-scope q6", billedRequests(t, nil, single(q6SQL)), map[string]int64{
		pricing.LabelS3Read: 13, pricing.LabelSQS: 18,
	})

	// The rules follow the plan, not the entrance: q6 planned by the staged
	// entrance is still one stage without a boundary, and pays for none —
	// only the planner's footer reads of every file come on top.
	assertRequests(t, "staged-entrance q6", billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
		_, rep, err := d.RunSQLStaged(q6SQL, TableFiles{"lineitem": tables["lineitem"]}, DefaultStageConfig())
		if err == nil && (rep.Stages != 1 || rep.Epoch != 0) {
			t.Errorf("staged-entrance q6: stages = %d, epoch = %d, want one unfenced stage", rep.Stages, rep.Epoch)
		}
		return err
	}), map[string]int64{
		// Re-recorded in PR 15 (12 → 13 polls): pruning leaves this plan one
		// worker, launched directly, and a direct launch no longer sleeps a
		// pacing gap after its last Invoke — the driver reaches its result
		// queue 36 ms earlier and fits one more timed poll before the seal.
		// PR 20: five opens — the planner's four and the one worker's —
		// 18 → 13 S3 reads, SQS 13 → 12. PR 23: the worker's column spans
		// ride one request window instead of paying their first-byte
		// latencies one after another, so it answers one timed poll sooner —
		// SQS 12 → 11, every S3 row as it was.
		pricing.LabelS3Read: 13, pricing.LabelSQS: 11,
	})

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
	// The parent wrote 5 items: the epoch fence plus one ready marker per
	// stage, the result stage's included.
	const parentDynamoWrites = 5
	// The two poll counts were re-recorded in PR 15 (SQS 31 → 33, DynamoDB
	// reads 26 → 27) for the same cause as above: every fleet here is two
	// workers launched directly, the workers start at the instants they did,
	// and the driver's first poll comes one pacing gap earlier. SQS went
	// 33 → 32 in PR 18: a consumer reads its two senders' slots through the
	// S3 client's request window, the two first-byte latencies overlap, and
	// the query ends before the driver's next timed poll of the result queue
	// fits. The S3 counts did not move — same requests, issued sooner.
	// PR 20: ten opens — the planner's six (four lineitem files, two orders)
	// and the scan workers' four — 48 → 38 S3 reads; SQS 32 → 29, DynamoDB
	// reads 27 → 19. PR 23: the scan workers' column spans ride the request
	// window (two or three first-byte latencies paid together, not in turn),
	// so the scan stages seal ≈ 30–60 ms sooner and the timed polls fall
	// differently — SQS 29 → 30, DynamoDB reads 19 → 18; no S3 count moved.
	assertRequests(t, "staged q12", staged, map[string]int64{
		pricing.LabelS3Read: 38, pricing.LabelS3Write: 6, pricing.LabelS3List: 22,
		pricing.LabelSQS: 30, pricing.LabelDynamoRead: 18,
		pricing.LabelDynamoWrite: parentDynamoWrites - 1,
	})

	// ORDERS broadcast: the driver reads the table through the source the
	// planner opened it with, so its two files cost one HEAD and one footer
	// GET each — recorded in PR 19, whose parent opened them twice (S3 reads
	// 38). SQS and DynamoDB reads are polls, recorded as measured. PR 20:
	// eight opens — the planner's six and the two lineitem workers' —
	// 34 → 26 S3 reads; SQS 22 → 19. PR 23, same cause as above: SQS 19 → 21,
	// DynamoDB reads 10 → 9.
	assertRequests(t, "staged q12, orders broadcast", billedRequests(t, nil, func(d *Driver, tables TableFiles) error {
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.Exchange.Poll = 100 * time.Millisecond
		_, rep, err := d.RunSQLStaged(q12ExactSQL, tables, scfg)
		if err == nil && rep.Stages != 2 {
			t.Errorf("staged q12, orders broadcast: %d stages, want 2 (orders not broadcast?)", rep.Stages)
		}
		return err
	}), map[string]int64{
		pricing.LabelLambdaRequests: 4,
		pricing.LabelS3Read:         26, pricing.LabelS3Write: 2, pricing.LabelS3List: 18,
		pricing.LabelSQS: 21, pricing.LabelDynamoRead: 9, pricing.LabelDynamoWrite: 2,
	})

	// Multi-level boundaries and admission-capped launch, as recorded on the
	// commit before regroup fleets became ordinary stages and launch one loop
	// (PR 15). The S3, DynamoDB-write and Lambda counts are timing-free and
	// stand as recorded. The SQS and DynamoDB-read counts are polls and moved
	// with the launch schedule — no trailing pacing gap, and a regroup fleet
	// launched right behind its producer instead of after every plan stage;
	// the parent polled 50/74 (2l), 45/60 (2l-wc) and 64/16 (capped). PR 18
	// moved them again, down (from 50/72, 49/63 and 66/17): collects and
	// sweeps go through the S3 client's request window, so stages seal and
	// the query ends a few timed polls of the ready markers and the result
	// queue sooner. The S3 rows next to them did not move. PR 20: the ten
	// opens of "staged q12" above, 54 → 44 S3 reads on all three rows; polls
	// from 50/70, 46/61 and 63/15. (2l-wc's 55 DynamoDB reads were 51 with a
	// 4 KiB footer guess: the 8 KiB one moves 4 KiB more per open, ≈ 0.05 ms
	// of shaped transfer each, and no other count on any row.) PR 23: polls
	// from 48/76, 45/55 and 59/18 — the scan workers' spans share a request
	// window, the first stages seal sooner and every consumer behind them
	// polls its ready marker fewer times; S3, Lambda and DynamoDB-write rows
	// as they were.
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
		pricing.LabelLambdaRequests: 14,
		pricing.LabelS3Read:         44, pricing.LabelS3Write: 30, pricing.LabelS3List: 28,
		pricing.LabelSQS: 48, pricing.LabelDynamoRead: 66, pricing.LabelDynamoWrite: 7,
	})
	assertRequests(t, "staged q12 2l-wc", billedRequests(t, nil, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 14,
		pricing.LabelS3Read:         44, pricing.LabelS3Write: 12, pricing.LabelS3List: 28,
		pricing.LabelSQS: 44, pricing.LabelDynamoRead: 50, pricing.LabelDynamoWrite: 7,
	})
	capped := func(c *Config) { c.MaxInFlight = 2 }
	assertRequests(t, "staged q12 2l-wc, MaxInFlight 2", billedRequests(t, capped, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 14,
		pricing.LabelS3Read:         44, pricing.LabelS3Write: 12, pricing.LabelS3List: 28,
		pricing.LabelSQS: 59, pricing.LabelDynamoRead: 16, pricing.LabelDynamoWrite: 7,
	})
}
