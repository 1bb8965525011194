package driver

import (
	"strconv"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// runStagedCost executes the selective-predicate q12 under DES with the
// given file layout, returning the result chunk and the run's billed S3
// counters; traced, the report carries the run's trace.
func runStagedCost(t testing.TB, liOpts, ordOpts lpq.WriterOptions, wc, traced bool) (*columnar.Chunk, *Report) {
	t.Helper()
	scfg := shuffled(2)
	scfg.Exchange.Variant.WriteCombining = wc
	scfg.Exchange.Variant.Levels = 1
	var out *columnar.Chunk
	var rep *Report
	mk := func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 47)
		if traced {
			dep.EnableTracing(obs.New())
		}
		return dep
	}
	_, err := onDES(mk, DefaultConfig(), layout{}, func(p *simclock.Proc, d *Session, _ TableFiles) error {
		data := tpchData(33)
		liRefs, err := d.UploadTable(p, "tpch", "lineitem", data.lineitem, 6, liOpts)
		if err != nil {
			return err
		}
		ordRefs, err := d.UploadTable(p, "tpch", "orders", data.orders, 3, ordOpts)
		if err != nil {
			return err
		}
		out, rep, err = d.RunSQLStaged(p, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		return err
	})
	if err != nil {
		t.Fatalf("staged q12: %v", err)
	}
	return out, rep
}

// The filtered fact table is paged for fine-grained pruning; the unfiltered
// orders table keeps the default layout (unpaged chunks — paging an
// always-fully-read table would only cost compression ratio).
var (
	pagedOpts   = lpq.WriterOptions{RowGroupRows: 2000, PageRows: 512, Compression: lpq.Gzip}
	unpagedOpts = lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}
)

// TestStagedSelectiveScanCostGuard is the acceptance-criterion test of the
// price-aware scan layer: staged q12 (selective l_receiptdate range) on
// paged files, read with page pruning, late materialization and coalescing,
// bills exactly the S3 GETs and bytes pinned below at byte-identical
// results, on both exchange variants, deterministically across repeated
// DES runs. The pre-page-index read pattern — LPQ1 files, one GET per
// column chunk, no late materialization — billed 45 GETs and 174 782 bytes
// for the same query on either variant; whatever is pinned must stay
// strictly below its GETs and its dollars, and the bytes the run wanted —
// what it billed less the holes its scans' spans carried, which every
// worker's execute phase tags as bytes.dead — strictly below its bytes.
//
// 44 → 43 GETs when a payload under the break-even began to ride the filter's
// request window: the one-row group of part-00002 coalesces its filter range
// into a payload span (one filter span + three payload spans → three); the
// two 2000-row groups keep their five spans. The bytes are unchanged: no
// filter emptied a page at either end of a kept window, so every payload
// range is the one the two-phase read fetched.
//
// 43 → 38 GETs and 165 265 → 124 305 bytes when the footers began to ride
// the payload: the five scan workers' opens are gone, one suffix read of
// lpq.FooterGuess (8 192) bytes each.
//
// 38 → 25 GETs and 124 305 → 183 605 bytes when a span came to carry up to
// s3fs.DefaultCoalesceGap dead bytes in all, whatever share of it they are:
// the two 2000-row lineitem groups are one span each where they were five,
// the one-row group one where it was three, and each of the three ORDERS
// groups one where its two far-apart columns were two. The bytes the run
// wants are the 124 305 it billed before; the 59 300 more it now fetches are
// holes, and free.
func TestStagedSelectiveScanCostGuard(t *testing.T) {
	const (
		wantGets, wantBytes = 25, 183605
		wantWanted          = 124305
		prePageIndexGets    = 45
		prePageIndexBytes   = 174782
	)
	_, prePageIndexUSD := pricing.Bill(obs.Cost{S3Get: prePageIndexGets, S3ReadBytes: prePageIndexBytes})
	want := singleNode(t, q12ExactSQL, tpchData(33).catalog())
	for _, wc := range []bool{false, true} {
		for run := 0; run < 2; run++ {
			out, rep := runStagedCost(t, pagedOpts, unpagedOpts, wc, true)
			chunksIdentical(t, out, want)
			gets, bytes := rep.Cost.S3Get, rep.Cost.S3ReadBytes
			wanted := bytes
			for _, s := range rep.Trace.Spans() {
				dead, _ := strconv.ParseInt(s.Tags["bytes.dead"], 10, 64)
				wanted -= dead
			}
			_, usd := pricing.Bill(obs.Cost{S3Get: gets, S3ReadBytes: bytes})
			if gets >= prePageIndexGets || usd >= prePageIndexUSD || wanted >= prePageIndexBytes {
				t.Errorf("wc=%v run %d: billed %d GETs, %v, and wanted %d bytes; the pre-page-index read billed %d, %v, %d bytes — want strictly fewer",
					wc, run, gets, usd, wanted, prePageIndexGets, prePageIndexUSD, prePageIndexBytes)
			}
			if gets != wantGets || bytes != wantBytes || wanted != wantWanted {
				t.Errorf("wc=%v run %d: billed %d GETs, %d bytes, %d of them wanted; want %d, %d, %d",
					wc, run, gets, bytes, wanted, wantGets, wantBytes, wantWanted)
			}
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
func billedRequests(t *testing.T, mutate func(*Config), query func(d *Session, env simenv.Env, tables TableFiles) error) map[string]int64 {
	t.Helper()
	cfg := desConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	got := map[string]int64{}
	_, err := onDES(simulated(47), cfg, layout{Data: 33, LI: 4, Ord: 2, Opts: gzipLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		labels := append([]string{pricing.LabelLambdaRequests}, requestLabels...)
		before := map[string]int64{}
		for _, l := range labels {
			before[l] = d.dep.Meter.Count(l)
		}
		if err := query(d, p, tables); err != nil {
			return err
		}
		for _, l := range labels {
			got[l] = d.dep.Meter.Count(l) - before[l]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
//
// The poll counts alone were then re-recorded once more, for one cause: on
// DES the launch pass runs beside the event loop, which keeps receiving while
// a fleet is invoked. A launch of several units (q1's tree of two synchronous
// Invokes, the staged q12's three fleets, the 2l plans' five) now has the
// loop's timed polls under it, where the loop used to be blocked (SQS q1
// 20 → 21, staged q12 24 → 25, 2l 32 → 38, 2l-wc 33 → 35, capped 46 → 48). A
// launch of one pipelined Invoke (q6, the broadcast q12) saves the empty
// Receive it paid at its start: the loop parks for the first message instead
// (11 → 10, 13 → 12). The extra Receives shift the SQS latency draws that the
// workers' seal Sends share, so the seal instants and the workers'
// ready-marker polls move with them (DynamoDB reads 2l-wc 20 → 23, capped
// 11 → 13). Every Lambda, S3 and DynamoDB-write count is unchanged.
//
// The staged rows were re-recorded once more, for one cause: a stage's ready
// marker is the manifest of what its workers committed, so consumers read
// their boundaries without a List, and a basic writer's seal message is its
// commit, so it Puts no marker. Every staged row now bills 16 LISTs, the two
// namespace sweeps over the 8 shard buckets (staged q12 20 → 16, the 2l rows
// 24 → 16), and 2l bills 8 S3 writes less — the markers of four senders and
// four regroup workers (20 → 12). S3 reads, Lambda and DynamoDB-write counts
// are unchanged. The collects finish sooner, so the polls moved as measured
// (SQS staged q12 25 → 24, 2l 38 → 36, 2l-wc 35 → 34, capped 48 → 41;
// DynamoDB reads 2l 29 → 24, capped 13 → 12).
//
// The polls were re-recorded once more, for one cause: every barrier arms its
// wake-up before its check. The driver's result loop used to miss a seal Sent
// while its empty Receive was in flight and wait out a whole PollInterval, in
// which further seals piled up for the next Receive to take together; now the
// park after that Receive returns at once, and a loop that reacts sooner
// takes fewer seals per Receive (SQS staged q12 24 → 25, broadcast 12 → 13,
// 2l-wc 34 → 38, capped 41 → 42). Seals consumed sooner move the ready
// markers, and the consumers' barrier reads with them (DynamoDB reads 2l
// 24 → 25, 2l-wc 23 → 24). Every Lambda, S3 and DynamoDB-write count is
// unchanged.
//
// The staged rows were re-recorded once more, for one cause: a staged query
// at epoch 1 lists nothing and purges nothing. The driver deletes what the
// query wrote by key, so the two namespace sweeps' 16 LISTs are gone from
// every staged row (16 → 0), and with the purge's empty Receive gone the
// first Invoke goes out right behind the epoch fence. Every later draw of the
// seeded latency stream moves with it, so the polls are as measured (SQS
// staged q12 25 → 21, 2l 36 → 37, 2l-wc 38 → 34, capped 42 → 41; DynamoDB
// reads staged q12 8 → 7, 2l 25 → 28, 2l-wc 24 → 22, capped 12 → 11). Every
// Lambda, S3 read, S3 write and DynamoDB-write count is unchanged.
//
// The polls were re-recorded once more, for one cause: the driver launches
// from its requester pool and gates a consumer on its producers' first
// winners. Every driver-side Invoke is pipelined and paced at Table 1's
// concurrent rate, so a fleet is out in a few milliseconds where it took 36 ms
// per Invoke, and the loop has fewer timed polls under a launch (SQS q1
// 21 → 17, broadcast 13 → 12, 2l 37 → 35, capped 41 → 40). A consumer
// launched once its producers reported parks on their ready markers for less
// time, and polls them fewer times (DynamoDB reads 2l 28 → 14, 2l-wc
// 22 → 13); the loop reacts to the producers' first seals to launch it and
// takes fewer seals per Receive (SQS staged q12 21 → 23, 2l-wc 34 → 38).
// Every Lambda, S3 read, S3 write and DynamoDB-write count is unchanged.
//
// The S3 reads were re-recorded once more, for one cause: a row group whose
// payload costs less than a round trip (scan's payloadBreakEven) fetches it
// in the filter's request window, where ReadRanges coalesces the two. Every
// lineitem group of these files is unpaged and far below it, and the filter
// empties none of them, so each saves the payload's separate spans less
// whatever no longer coalesces; the reasons are on the rows. The scans end a
// first-byte latency per group sooner, so the polls are as measured (SQS q1
// 17 → 15, q6 10 → 8, staged q12 23 → 22, broadcast 12 → 11, 2l 35 → 37,
// 2l-wc 38 → 36; DynamoDB reads 2l 14 → 13, 2l-wc 13 → 11, capped 11 → 10).
// Every Lambda, S3 write and DynamoDB-write count is unchanged.
//
// The S3 reads were re-recorded once more, for one cause: a worker opens no
// file. The driver ships each scan file's size and footer bytes in the
// payload, so every worker's open is gone from every row — one S3 read per
// file a scan worker was given (q1 16 → 12, q6 7 → 6, staged q12 31 → 27,
// broadcast 19 → 17, the 2l rows 35 → 31). The scans start their data reads
// a round trip sooner, so the polls are as measured (SQS staged q12
// 22 → 26, broadcast 11 → 10, 2l 37 → 36, 2l-wc 36 → 34, capped 40 → 39;
// DynamoDB reads staged q12 7 → 6, 2l 13 → 15). Every Lambda, S3 write and
// DynamoDB-write count is unchanged.
//
// The polls were re-recorded once more, for one cause: consecutive row groups
// share one request window, across files, while their first windows add up to
// at most the scan's payloadBreakEven. A worker given two files, or a file of
// two row groups, pays one first-byte latency for all of them where it paid
// one per group, and the driver loads a broadcast table's files in one window
// too. The scans seal sooner, so the polls are as measured (SQS q1 15 → 14,
// staged q12 26 → 25, capped 39 → 36; DynamoDB reads 2l 15 → 11, 2l-wc
// 11 → 10). Every Lambda, S3 read, S3 write and DynamoDB-write count is
// unchanged: the spans are still planned per row group.
//
// The DynamoDB reads were re-recorded once more, for one cause: the epoch
// fence is one conditional write. A query ID the session issues is fresh, so
// the driver creates its epoch item at 1 without reading it first, and every
// staged row bills exactly one DynamoDB read less (staged q12 6 → 5, 2l
// 11 → 10, 2l-wc 10 → 9, capped 10 → 9). The fleets launch a read's latency
// sooner, so the driver's polls are as measured (SQS staged q12 25 → 24).
// Every Lambda, S3 and DynamoDB-write count is unchanged: the keyed delete
// that now runs behind the result is free and never was counted here.
//
// The broadcast row's S3 reads were re-recorded once more, for one cause: a
// build side is a pinned file. The driver reads no table data; every worker
// of a stage that scans a build table reads its files itself, one GET per
// file, in its first request window (broadcast 17 → 19). Every other count
// of every row is unchanged.
//
// The q12 rows' S3 reads were re-recorded once more, for one cause: a span
// carries up to s3fs.DefaultCoalesceGap dead bytes in total, however small a
// share of it they are, since transfer into Lambda is free. Each of the three
// lineitem row groups the scan keeps is one GET where it was three, and each
// ORDERS group one where it was two; the reasons are on the rows. The scans
// issue fewer requests, so every later draw of the seeded latency stream
// moves, and the polls are as measured (SQS staged q12 24 → 21, 2l 36 → 35,
// 2l-wc 34 → 35, capped 36 → 37; DynamoDB reads staged q12 5 → 7, 2l
// 10 → 9, 2l-wc 9 → 10, capped 9 → 11). Every Lambda, S3 write and
// DynamoDB-write count is unchanged, and so is every q1 and q6 count: their
// groups were one span each already.
//
// The DynamoDB counts were re-recorded once more, for one cause: there is one
// ready marker per consumer stage. The driver writes one item per stage with
// inputs, keyed by that stage and holding every input's manifest, where it
// wrote one per producer, so a staged row bills the fence and one write per
// consumer (staged q12 3 → 2: the join's marker where each scan stage had
// one; the 2l rows 5 → 4: the two regroup fleets' markers and the join's,
// where both scan stages and both regroup fleets had one). A worker reads one
// item where it read one per input, so a join worker waits on one marker, not
// two (DynamoDB reads staged q12 7 → 4, 2l 9 → 7, 2l-wc 10 → 9, capped
// 11 → 8). The join workers collect a read sooner, so the polls are as
// measured (SQS capped 37 → 36; the other rows' did not move). Every Lambda
// and S3 count is unchanged.
func TestExecutorRequestGuard(t *testing.T) {
	single := func(sql string) func(*Session, simenv.Env, TableFiles) error {
		return func(d *Session, env simenv.Env, tables TableFiles) error {
			_, _, err := d.RunSQL(env, sql, "lineitem", tables["lineitem"])
			return err
		}
	}
	// q1 prunes no file: eight opens, the planner's four and one per worker
	// (21 → 24 S3 reads: the parent's driver opened the first file only; SQS
	// 21 → 20). q6's year leaves one file of four: five opens, the planner's
	// and the one worker's (S3 reads 13 as before, three workers' opens
	// traded for the planner's; one Invoke, not four; SQS 18 → 11).
	// q1: 24 → 16, one GET fewer in each of its eight row groups — the
	// payload's one span merges into the filter's. q6: 13 → 7, three fewer in
	// each of its two — the payload fills the holes between the filter's three
	// spans, and the five columns are one span. q1: 16 → 12, q6: 7 → 6 — the
	// planner's opens are the only ones left.
	assertRequests(t, "q1", billedRequests(t, nil, single(q1SQL)), map[string]int64{
		pricing.LabelLambdaRequests: 4, pricing.LabelS3Read: 12, pricing.LabelSQS: 14,
	})
	q6 := billedRequests(t, nil, single(q6SQL))
	assertRequests(t, "q6", q6, map[string]int64{
		pricing.LabelLambdaRequests: 1, pricing.LabelS3Read: 6, pricing.LabelSQS: 8,
	})

	// The rules follow the plan, not the entrance: q6 through the other
	// entrance is the same one stage without a boundary, and bills the same.
	assertRequests(t, "q6, RunSQLStaged", billedRequests(t, nil, func(d *Session, env simenv.Env, tables TableFiles) error {
		_, rep, err := d.RunSQLStaged(env, q6SQL, TableFiles{"lineitem": tables["lineitem"]}, DefaultStageConfig())
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
		return billedRequests(t, nil, func(d *Session, env simenv.Env, tables TableFiles) error {
			registered := TableFiles{}
			for _, name := range with {
				registered[name] = tables[name]
			}
			_, _, err := d.RunSQLStaged(env, q1SQL, registered, DefaultStageConfig())
			return err
		})
	}
	assertRequests(t, "staged q1, orders registered", stagedQ1("lineitem", "orders"), stagedQ1("lineitem"))

	staged := billedRequests(t, nil, func(d *Session, env simenv.Env, tables TableFiles) error {
		scfg := shuffled(2)
		scfg.Exchange.Poll = 100 * time.Millisecond
		_, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, scfg)
		return err
	})
	// Three stages — scan, scan, join+partial — and ten opens: the planner's
	// six (four lineitem files, two orders) and the scan workers' four. The
	// two DynamoDB writes are the epoch fence and the join stage's ready
	// marker, both scans' manifests in one item; a scan stage waits on
	// nothing, and the join posts to the driver.
	// Against the four-stage plan: six Invokes, not eight; 38 → 34 S3 reads,
	// 6 → 4 writes and 22 → 20 LISTs (the final stage's two collects); polls
	// SQS 30 → 24, DynamoDB reads 18 → 8. No LIST is left: the protocol
	// reads from manifests and the driver deletes by key. 34 → 31 S3 reads:
	// one fewer in each of the three lineitem row groups the scan keeps — the
	// filter's one span merges into one of the payload's three. 31 → 27: the
	// scan workers' four opens are gone; the planner's six are all that is
	// left of ten. 27 → 19: each of the three lineitem groups is one span
	// where it was three (−6), and each of the two ORDERS groups one where its
	// two far-apart columns were two (−2). DynamoDB 3 → 2 writes, 7 → 4
	// reads: one marker for the join, which its two workers poll four times
	// in all, where they polled the two scans' markers seven times.
	assertRequests(t, "staged q12", staged, map[string]int64{
		pricing.LabelLambdaRequests: 6,
		pricing.LabelS3Read:         19, pricing.LabelS3Write: 4,
		pricing.LabelSQS: 21, pricing.LabelDynamoRead: 4, pricing.LabelDynamoWrite: 2,
	})

	// ORDERS broadcast: with the merge on the driver nothing is left to
	// shuffle — one stage, no boundary, so rule 1 gives it no DynamoDB
	// request and no LIST at all. Eight opens, the planner's six and the two
	// lineitem workers' (26 → 22 S3 reads: the final stage's collects;
	// 22 → 19: the three lineitem row groups' one GET fewer each, as above;
	// 19 → 17: the two workers' opens). 17 → 19: the build side is a pinned
	// file. The driver no longer loads ORDERS (two GETs, one per file), and
	// each of the two lineitem workers reads both ORDERS files in its first
	// request window, one GET each (four). The SQS polls did not move.
	// 19 → 13: the three lineitem groups' one span each where they were three
	// (−6). The build side's ORDERS reads were one GET a group already.
	assertRequests(t, "staged q12, orders broadcast", billedRequests(t, nil, func(d *Session, env simenv.Env, tables TableFiles) error {
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.Exchange.Poll = 100 * time.Millisecond
		_, rep, err := d.RunSQLStaged(env, q12ExactSQL, tables, scfg)
		if err == nil && rep.Stages != 1 {
			t.Errorf("staged q12, orders broadcast: %d stages, want 1 (orders not broadcast?)", rep.Stages)
		}
		return err
	}), map[string]int64{
		pricing.LabelLambdaRequests: 2, pricing.LabelS3Read: 13, pricing.LabelSQS: 10,
	})

	// Multi-level boundaries and admission-capped launch: the two scan
	// boundaries with a regroup fleet of two each — ten Invokes (the
	// four-stage plan's fourteen had the final stage and the join boundary's
	// regroup fleet), four DynamoDB writes (the fence, and a marker per
	// consumer: each regroup fleet's, holding its scan's manifest, and the
	// join's, holding both regroup fleets'; five with a marker per producer),
	// no S3 List. The S3,
	// DynamoDB-write and Lambda counts
	// are timing-free; the SQS and DynamoDB-read counts are polls and move
	// with the launch schedule — recorded as measured. 38 → 35 S3 reads on
	// each: the three lineitem row groups' one GET fewer each, as above;
	// 35 → 31: the four scan workers' opens. 31 → 23: the five groups' one
	// span each, as on the staged row (−8).
	twoLevel := func(wc bool) func(*Session, simenv.Env, TableFiles) error {
		return func(d *Session, env simenv.Env, tables TableFiles) error {
			scfg := shuffled(2)
			scfg.Exchange.Poll = 100 * time.Millisecond
			scfg.Exchange.Variant.WriteCombining = wc
			scfg.Exchange.Variant.Levels = 2
			_, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, scfg)
			return err
		}
	}
	assertRequests(t, "staged q12 2l", billedRequests(t, nil, twoLevel(false)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         23, pricing.LabelS3Write: 12,
		pricing.LabelSQS: 35, pricing.LabelDynamoRead: 7, pricing.LabelDynamoWrite: 4,
	})
	assertRequests(t, "staged q12 2l-wc", billedRequests(t, nil, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         23, pricing.LabelS3Write: 8,
		pricing.LabelSQS: 35, pricing.LabelDynamoRead: 9, pricing.LabelDynamoWrite: 4,
	})
	capped := func(c *Config) { c.MaxInFlight = 2 }
	assertRequests(t, "staged q12 2l-wc, MaxInFlight 2", billedRequests(t, capped, twoLevel(true)), map[string]int64{
		pricing.LabelLambdaRequests: 10,
		pricing.LabelS3Read:         23, pricing.LabelS3Write: 8,
		pricing.LabelSQS: 36, pricing.LabelDynamoRead: 8, pricing.LabelDynamoWrite: 4,
	})
}
