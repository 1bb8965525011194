package lambada_test

// One benchmark per table and figure of the paper's evaluation. The
// benchmarks report the headline quantity of each experiment as a custom
// metric (virtual seconds, dollars, MiB/s) so `go test -bench . -benchmem`
// regenerates the paper's numbers. cmd/lambada-bench prints the full
// rows/series.

import (
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/exchange"
	"lambada/internal/experiments"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/qaas"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// BenchmarkFigure1a regenerates the job-scoped IaaS-vs-FaaS frontier.
func BenchmarkFigure1a(b *testing.B) {
	var minFaaS float64
	for i := 0; i < b.N; i++ {
		_, faas := experiments.Figure1a(experiments.DefaultFigure1a())
		minFaaS = faas[len(faas)-1].Time.Seconds()
	}
	b.ReportMetric(minFaaS, "faas-floor-s")
}

// BenchmarkFigure1b regenerates the always-on cost comparison.
func BenchmarkFigure1b(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure1b(experiments.DefaultFigure1b())
		crossover = f.Series[len(f.Series)-1].Points[0].Y // FaaS at 1 query/h
	}
	b.ReportMetric(crossover, "faas-$/h-at-1qph")
}

// BenchmarkTable1 regenerates the invocation characteristics.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1()
	}
	b.ReportMetric(netmodel.InvokeProfiles[netmodel.RegionEU].DriverRate, "eu-inv/s")
}

// BenchmarkFigure4 regenerates the CPU-share microbenchmark.
func BenchmarkFigure4(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure4()
		two := f.Series[1].Points
		speedup = two[len(two)-1].Y / 100
	}
	b.ReportMetric(speedup, "3008MiB-2thr-speedup")
}

// BenchmarkFigure5 runs the two-level invocation of 4096 workers (DES).
func BenchmarkFigure5(b *testing.B) {
	var all time.Duration
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(experiments.Figure5Config{Workers: 4096, Region: netmodel.RegionEU, Seed: int64(i + 1)})
		all = res.AllRunning
	}
	b.ReportMetric(all.Seconds(), "all-running-s")
}

// BenchmarkFigure6 regenerates the ingress-bandwidth microbenchmark.
func BenchmarkFigure6(b *testing.B) {
	var smallBurst float64
	for i := 0; i < b.N; i++ {
		_, small := experiments.Figure6()
		pts := small.Series[len(small.Series)-1].Points
		smallBurst = pts[len(pts)-1].Y
	}
	b.ReportMetric(smallBurst, "small-4conn-MiB/s")
}

// BenchmarkFigure7 regenerates the chunk-size sweep.
func BenchmarkFigure7(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure7(experiments.DefaultFigure7())
		for _, r := range rows {
			if r.ChunkMiB == 1 && r.Conns == 4 {
				ratio = r.WorkerCostRatio
			}
		}
	}
	b.ReportMetric(ratio, "1MiB-req/worker-cost")
}

// BenchmarkFigure9 evaluates the exchange cost models (Table 2 formulas).
func BenchmarkFigure9(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = requestUSD(exchange.Variant{Levels: 1}, 4096)
	}
	b.ReportMetric(cost, "1l-4096w-$")
}

// BenchmarkTable2 checks the request-complexity formulas.
func BenchmarkTable2(b *testing.B) {
	var reads float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		_ = t
		reads = exchange.Variant{Levels: 2, WriteCombining: true}.Reads(1024)
	}
	b.ReportMetric(reads, "2lwc-1024w-reads")
}

// BenchmarkFigure10 regenerates the M×F sweep of Q1 (model).
func BenchmarkFigure10(b *testing.B) {
	m := experiments.DefaultLambadaModel()
	var hot time.Duration
	for i := 0; i < b.N; i++ {
		est := m.Run(experiments.RunConfig{Query: experiments.SpecQ1, SF: 1000, M: 1792, F: 1, Seed: int64(i + 1)})
		hot = est.Total
	}
	b.ReportMetric(hot.Seconds(), "q1-sf1k-hot-s")
}

// BenchmarkFigure11 regenerates the processing-time distribution.
func BenchmarkFigure11(b *testing.B) {
	m := experiments.DefaultLambadaModel()
	var fastBand float64
	for i := 0; i < b.N; i++ {
		est := m.Run(experiments.RunConfig{Query: experiments.SpecQ6, SF: 1000, M: 1792, F: 1, Seed: int64(i + 1)})
		fast := 0
		for _, t := range est.WorkerTimes {
			if t < 400*time.Millisecond {
				fast++
			}
		}
		fastBand = float64(fast) / float64(len(est.WorkerTimes))
	}
	b.ReportMetric(fastBand, "q6-pruned-fraction")
}

// BenchmarkFigure12 regenerates the QaaS comparison.
func BenchmarkFigure12(b *testing.B) {
	m := experiments.DefaultLambadaModel()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure12(m, int64(i+1))
		var lam, ath time.Duration
		for _, r := range rows {
			if r.Query == "Q1" && r.SF == 10000 {
				if r.System == "Lambada(M=1792)" && r.Run == "hot" {
					lam = r.Latency
				}
				if r.System == "Athena" {
					ath = r.Latency
				}
			}
		}
		speedup = ath.Seconds() / lam.Seconds()
	}
	b.ReportMetric(speedup, "q1-sf10k-vs-athena")
}

// BenchmarkTable3 runs the 100 GB exchange on 250 workers (DES).
func BenchmarkTable3(b *testing.B) {
	var dur time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunExchangeDES(experiments.ExchangeRunConfig{
			Workers: 250, TotalBytes: 100 * netmodel.GB,
			Variant: exchange.Variant{Levels: 2, WriteCombining: true},
			Buckets: 32, MemoryMiB: 2048, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		dur = res.Duration
	}
	b.ReportMetric(dur.Seconds(), "100GB-250w-s")
}

// BenchmarkFigure13 runs the 1 TB / 1250-worker shuffle with stragglers.
func BenchmarkFigure13(b *testing.B) {
	var dur time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(1*netmodel.TB, 1250, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		dur = res.Run.Duration
	}
	b.ReportMetric(dur.Seconds(), "1TB-1250w-s")
}

// BenchmarkQaaSModels evaluates the comparator models.
func BenchmarkQaaSModels(b *testing.B) {
	a := qaas.DefaultAthena()
	bq := qaas.DefaultBigQuery()
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = float64(a.Run(qaas.Q1, 1000).Cost) + float64(bq.Run(qaas.Q6, 10000).Cost)
	}
	b.ReportMetric(cost, "qaas-$")
}

// BenchmarkEndToEndQueryDES runs a complete SQL query (real data, real
// operators) on the DES deployment — the full system in one number.
func BenchmarkEndToEndQueryDES(b *testing.B) {
	data := tpch.Gen{SF: 0.002, Seed: 9}.Generate()
	b.ResetTimer()
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		k := simclock.New()
		dep := driver.NewSimulated(k, int64(i+1))
		k.Go("driver", func(p *simclock.Proc) {
			cfg := driver.DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := driver.NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				b.Error(err)
				return
			}
			refs, err := d.UploadTable(p, "tpch", "lineitem", data, 8, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				b.Error(err)
				return
			}
			_, rep, err := d.RunSQL(p, `SELECT SUM(l_extendedprice * l_discount) AS revenue
				FROM lineitem
				WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
				  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`,
				"lineitem", refs)
			if err != nil {
				b.Error(err)
				return
			}
			virtual = rep.Duration
		})
		k.Run()
	}
	b.ReportMetric(virtual.Seconds(), "virtual-s")
}

// BenchmarkEndToEndQueryLocal runs the same query on goroutine workers.
func BenchmarkEndToEndQueryLocal(b *testing.B) {
	data := tpch.Gen{SF: 0.002, Seed: 9}.Generate()
	dep := driver.NewLocal()
	d := driver.NewSession(dep, driver.DefaultConfig())
	env := simenv.NewImmediate()
	if err := d.Install(); err != nil {
		b.Fatal(err)
	}
	refs, err := d.UploadTable(env, "tpch", "lineitem", data, 8, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.RunSQL(env, "SELECT COUNT(*) AS n FROM lineitem", "lineitem", refs); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationTreeVsDirect compares the invocation strategies at 4096
// workers.
func BenchmarkAblationTreeVsDirect(b *testing.B) {
	var tree, direct time.Duration
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(experiments.Figure5Config{Workers: 4096, Region: netmodel.RegionEU, Seed: int64(i + 1)})
		tree = res.AllRunning
		direct = res.DirectEstimate
	}
	b.ReportMetric(tree.Seconds(), "tree-s")
	b.ReportMetric(direct.Seconds(), "direct-s")
}

// BenchmarkAblationExchangeVariants prices all six variants at 1024 workers.
func BenchmarkAblationExchangeVariants(b *testing.B) {
	var basic, best float64
	for i := 0; i < b.N; i++ {
		basic = requestUSD(exchange.Variant{Levels: 1}, 1024)
		best = requestUSD(exchange.Variant{Levels: 3, WriteCombining: true}, 1024)
	}
	b.ReportMetric(basic/best, "1l-vs-3lwc-cost-ratio")
}

// requestUSD prices the requests of one P-worker exchange (Table 2): reads,
// writes, and write combining's lists.
func requestUSD(v exchange.Variant, p int) float64 {
	usd := pricing.USD(v.Reads(p))*pricing.S3Read + pricing.USD(v.Writes(p))*pricing.S3Write
	if v.WriteCombining {
		usd += pricing.USD(v.Lists(p)) * pricing.S3List
	}
	return float64(usd)
}

// BenchmarkAblationPruning measures row-group pruning on Q6's shipdate
// range over the sorted relation (real scan path): scanning l_extendedprice
// from the row groups the footer statistics keep against scanning all of
// them.
func BenchmarkAblationPruning(b *testing.B) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("data")
	data := tpch.Gen{SF: 0.01, Seed: 3}.Generate()
	raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{RowGroupRows: 2000}, data)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Put(env, "data", "lineitem.lpq", raw); err != nil {
		b.Fatal(err)
	}
	ref := scan.FileRef{Bucket: "data", Key: "lineitem.lpq"}
	preds := []lpq.Predicate{{Column: "l_shipdate", Min: float64(tpch.Q6ShipDateLo), Max: float64(tpch.Q6ShipDateHi - 1)}}
	for _, prune := range []bool{true, false} {
		name := "pruned"
		if !prune {
			name = "all"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				src := scan.New(s3.NewClient(svc, env), scan.DefaultConfig(), ref)
				var keep []lpq.Predicate
				if prune {
					keep = preds
				}
				if err := src.Scan([]string{"l_extendedprice"}, keep, func(*columnar.Chunk) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
