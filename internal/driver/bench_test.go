package driver

import (
	"errors"
	"fmt"
	"lambada/internal/columnar"
	"testing"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// BenchmarkShuffleJoin measures the end-to-end staged shuffle join on the
// functional deployment: two scan stages partitioning through the S3
// exchange, a join stage per partition pair, and the partial→final
// aggregation split (the q12 shape with integer-exact aggregates). One op
// is a whole query: invoke, shuffle, barriers, driver merge.
func BenchmarkShuffleJoin(b *testing.B) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	d := NewSession(dep, DefaultConfig())
	if err := d.Install(); err != nil {
		b.Fatal(err)
	}
	g := tpch.Gen{SF: 0.01, Seed: 33}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := d.UploadTable(env, "tpch", "lineitem", li, 8, lpq.WriterOptions{RowGroupRows: 8192})
	if err != nil {
		b.Fatal(err)
	}
	ordRefs, err := d.UploadTable(env, "tpch", "orders", orders, 4, lpq.WriterOptions{RowGroupRows: 8192})
	if err != nil {
		b.Fatal(err)
	}
	tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
	cfg := DefaultStageConfig()
	cfg.Partitions = 4
	cfg.BroadcastRowLimit = -1

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkStagedPipelined runs the q12 shuffle end-to-end on the DES
// deployment — every stage invoked up front, ready barriers gating collects
// — and reports the modeled query latency as vms/op (virtual milliseconds):
// ns/op only measures how fast the simulation executes, while the virtual
// latency is what pipelined launch buys — consumer cold starts and barrier
// round trips overlap upstream execution.
func BenchmarkStagedPipelined(b *testing.B) {
	scfg := shuffled(4)
	scfg.Exchange.Poll = 20 * time.Millisecond
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		virtual += benchQ12(b, 7, false, desConfig(), layout{Data: 33, LI: 12, Ord: 6, Opts: stdLayout.Opts}, scfg).Duration
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1e6, "vms/op")
}

// benchQ12 runs staged q12 once on a fresh DES deployment of seed, traced
// or not, and returns its report.
func benchQ12(b *testing.B, seed int64, traced bool, cfg Config, l layout, scfg StageConfig) *Report {
	var rep *Report
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, seed)
		if traced {
			dep.EnableTracing(obs.New())
		}
		return dep
	}, cfg, l, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		var out *columnar.Chunk
		if out, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg); err == nil && out.NumRows() == 0 {
			err = errors.New("empty result")
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkBroadcastJoin is the same query through the driver-broadcast
// path — the baseline the shuffle pays its exchange overhead against on
// small inputs (at scale the broadcast path stops existing: the build side
// no longer fits the payloads).
func BenchmarkBroadcastJoin(b *testing.B) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	d := NewSession(dep, DefaultConfig())
	if err := d.Install(); err != nil {
		b.Fatal(err)
	}
	g := tpch.Gen{SF: 0.01, Seed: 33}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := d.UploadTable(env, "tpch", "lineitem", li, 8, lpq.WriterOptions{RowGroupRows: 8192})
	if err != nil {
		b.Fatal(err)
	}
	ordRefs, err := d.UploadTable(env, "tpch", "orders", orders, 4, lpq.WriterOptions{RowGroupRows: 8192})
	if err != nil {
		b.Fatal(err)
	}
	tables := TableFiles{"lineitem": liRefs, "orders": ordRefs}
	cfg := DefaultStageConfig()
	cfg.BroadcastRowLimit = 1 << 30 // planner picks broadcast

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkStagedSelectiveScan measures what the price-aware scan layer
// actually bills: staged q12 (selective l_receiptdate range) on paged
// lineitem files under DES, reporting the modeled S3 cost per query —
// billed GET requests and billed bytes — alongside the virtual latency.
// These are the dollar axes of the paper's cost model: requests have a
// fixed price, bytes a linear one, and the page index / late
// materialization / coalescing trade between them.
func BenchmarkStagedSelectiveScan(b *testing.B) {
	var virtual time.Duration
	var gets, bytes int64
	for i := 0; i < b.N; i++ {
		_, rep := runStagedCost(b, pagedOpts, unpagedOpts, true, false)
		virtual += rep.Duration
		gets += rep.Cost.S3Get
		bytes += rep.Cost.S3ReadBytes
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1e6, "vms/op")
	b.ReportMetric(float64(gets)/float64(b.N), "billed_get_requests/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "billed_bytes/op")
}

// benchStagedFleet runs staged q12 on the DES deployment at the given
// partition count and reports the modeled latency (vms/op), the billed S3
// request total (the multi-level exchange's target metric: requests, not
// bytes, dominate boundary cost at scale), and the modeled dollar cost.
// forceLevels pins the boundary round count (0 = the analytic resolver).
func benchStagedFleet(b *testing.B, parts, forceLevels int) {
	scfg := shuffled(parts)
	scfg.Exchange.Variant.Levels = forceLevels
	scfg.Exchange.Poll = 100 * time.Millisecond
	var virtual time.Duration
	var requests int64
	var workers int
	var usd float64
	for i := 0; i < b.N; i++ {
		rep := benchQ12(b, 7, false, desConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, scfg)
		virtual += rep.Duration
		requests += rep.Cost.S3Get + rep.Cost.S3Put + rep.Cost.S3List
		workers = rep.Workers
		usd += rep.TotalCost
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1e6, "vms/op")
	b.ReportMetric(float64(requests)/float64(b.N), "billed_requests/op")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(usd/float64(b.N), "usd/op")
}

// BenchmarkStagedQ12Fleet sweeps the staged q12 fleet size across the
// multi-level cutover: 64-ish workers stay single-round, the 1k and 4k
// points go multi-level automatically — the 1kSingleRound pin is the
// direct O(S·P) vs O(√P·S) request comparison at matching (S, P).
func BenchmarkStagedQ12Fleet(b *testing.B) {
	b.Run("Fleet64", func(b *testing.B) { benchStagedFleet(b, 30, 0) })
	b.Run("Fleet1k", func(b *testing.B) { benchStagedFleet(b, 512, 0) })
	b.Run("Fleet1kSingleRound", func(b *testing.B) { benchStagedFleet(b, 512, 1) })
	b.Run("Fleet4k", func(b *testing.B) { benchStagedFleet(b, 2048, 0) })
}

// BenchmarkStagedCriticalPath runs traced staged q12 under DES and splits
// the query's critical path between worker-side and driver-side virtual
// time: critpath_worker_vms is the latency bounded by spans inside worker
// invocations (the part more compute parallelism could shrink),
// critpath_driver_vms the remainder (invocation, barriers, collection —
// the part only protocol changes can shrink). The two sum to vms/op by
// the tiling property.
func BenchmarkStagedCriticalPath(b *testing.B) {
	var virtual, worker time.Duration
	for i := 0; i < b.N; i++ {
		rep := benchQ12(b, 47, true, desConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, shuffled(2))
		virtual += rep.Duration
		spans := rep.Trace.Spans()
		underInvoke := func(id obs.SpanID) bool {
			for id != 0 {
				s := spans[id-1]
				if s.Kind == obs.KindInvoke {
					return true
				}
				id = s.Parent
			}
			return false
		}
		for _, seg := range obs.CriticalPath(spans, rep.Span) {
			if underInvoke(seg.Span) {
				worker += seg.Duration()
			}
		}
	}
	b.ReportMetric(float64(virtual)/float64(b.N)/1e6, "vms/op")
	b.ReportMetric(float64(worker)/float64(b.N)/1e6, "critpath_worker_vms/op")
	b.ReportMetric(float64(virtual-worker)/float64(b.N)/1e6, "critpath_driver_vms/op")
}

// BenchmarkConcurrentQueries measures the resident session under 1, 4 and
// 16 concurrent query streams on the DES deployment: every stream runs the
// staged q12 shuffle join as its own DES process on ONE session sharing the
// warm pool and a 32-invocation admission cap. vms/op is the mean virtual
// latency of one query at that concurrency; billed-usd/query the mean
// billed dollars, taken from the deployment meter delta over the whole
// batch (per-report cost windows overlap under concurrency, the meter
// delta does not double count).
func BenchmarkConcurrentQueries(b *testing.B) {
	for _, streams := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("Streams%d", streams), func(b *testing.B) {
			var virtual time.Duration
			var billed float64
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := simclock.New()
				dep := NewSimulated(k, 7)
				cfg := desConfig()
				cfg.MaxInFlight = 32
				sess := NewSession(dep, cfg)
				var uploadUSD float64
				k.Go("setup", func(p *simclock.Proc) {
					tables, err := layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}.upload(p, sess)
					if err != nil {
						b.Error(err)
						return
					}
					uploadUSD = float64(dep.Meter.Total())
					for s := 0; s < streams; s++ {
						k.Go(fmt.Sprintf("stream%d", s), func(p *simclock.Proc) {
							scfg := shuffled(2)
							scfg.Exchange.Poll = 100 * time.Millisecond
							out, rep, err := sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
							if err != nil {
								b.Error(err)
								return
							}
							if out.NumRows() == 0 {
								b.Error("empty result")
								return
							}
							virtual += rep.Duration
							queries++
						})
					}
				})
				k.Run()
				if k.Deadlocked() {
					b.Fatal("DES deadlocked")
				}
				billed += float64(dep.Meter.Total()) - uploadUSD
			}
			if queries == 0 {
				b.Fatal("no queries completed")
			}
			b.ReportMetric(float64(virtual)/float64(queries)/1e6, "vms/op")
			b.ReportMetric(billed/float64(queries), "billed-usd/query")
		})
	}
}
