package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/invoke"
	"lambada/internal/netmodel"
	"lambada/internal/qaas"
)

// QuerySpec extends the QaaS billing spec with the scan-side properties the
// Lambada worker model needs.
type QuerySpec struct {
	qaas.QuerySpec
	// PruneFraction is the fraction of workers whose files are entirely
	// pruned by the shipdate min/max statistics (§5.3: ~2 % for Q1, ~80 %
	// for Q6 on the shipdate-sorted relation).
	PruneFraction float64
}

// The paper's two benchmark queries with their pruning behaviour.
var (
	SpecQ1 = QuerySpec{QuerySpec: qaas.Q1, PruneFraction: 0.02}
	SpecQ6 = QuerySpec{QuerySpec: qaas.Q6, PruneFraction: 0.80}
)

// LambadaModel estimates a scan-aggregate query on the serverless fleet at
// paper scale, using the calibrated network, CPU, and pricing models. The
// relation is stored as 320 Parquet files per SF 1000 (§5.1).
type LambadaModel struct {
	// FilesPerSF1000 is the file count at SF 1000.
	FilesPerSF1000 int
	// ParquetBytesSF1k is the table size at SF 1000.
	ParquetBytesSF1k int64
	// CPUBytesPerVCPUSecond is the GZIP-decompress+scan throughput of one
	// vCPU. Calibrated so that at M = 1792 MiB compute and network are
	// balanced (§5.2: more memory beyond 1792 yields no speedup, below it
	// the scan is CPU-bound).
	CPUBytesPerVCPUSecond float64
	// Conns is the scan operator's connection count.
	Conns int
	// ColdStart and HandlerOverhead model per-worker fixed costs.
	ColdStart       time.Duration
	HandlerOverhead time.Duration
	// MetaLatency is the paper's per-worker footer round trip, one per file.
	// The executor no longer pays it: the driver ships each worker its files'
	// footers in the payload (ROADMAP direction 4(d) reconciles the two).
	MetaLatency time.Duration
	// ColdSlowdown is the execution penalty of cold runs ("not only due to
	// a slower invocation time, but also somewhat slower execution").
	ColdSlowdown float64
	// Region selects invocation pacing.
	Region netmodel.Region
	// ChunkBytes is the scan request size (for request pricing).
	ChunkBytes int64
	// CollectBase and CollectPerMsg model fetching results from the SQS
	// queue (batches of ≤10 messages per receive).
	CollectBase   time.Duration
	CollectPerMsg time.Duration
	// StragglerSigma is the lognormal spread of per-worker execution, and
	// TailProb/TailMax inject the occasional S3 slow request that a worker
	// eats despite retries.
	StragglerSigma float64
	TailProb       float64
	TailMax        time.Duration
}

// DefaultLambadaModel returns the calibration used for Figures 10-12.
func DefaultLambadaModel() LambadaModel {
	return LambadaModel{
		FilesPerSF1000:        320,
		ParquetBytesSF1k:      qaas.ParquetBytesSF1k,
		CPUBytesPerVCPUSecond: 95e6,
		Conns:                 4,
		ColdStart:             250 * time.Millisecond,
		HandlerOverhead:       60 * time.Millisecond,
		MetaLatency:           35 * time.Millisecond,
		ColdSlowdown:          1.12,
		Region:                netmodel.RegionEU,
		ChunkBytes:            16 << 20,
		CollectBase:           1000 * time.Millisecond,
		CollectPerMsg:         700 * time.Microsecond,
		StragglerSigma:        0.10,
		TailProb:              0.008,
		TailMax:               2500 * time.Millisecond,
	}
}

// RunConfig is one Figure 10 configuration.
type RunConfig struct {
	Query QuerySpec
	SF    float64
	M     int // worker memory MiB
	F     int // files per worker
	Cold  bool
	Seed  int64
}

// RunEstimate is the modeled outcome of one query execution.
type RunEstimate struct {
	Workers    int
	Invocation time.Duration
	// WorkerTimes are per-worker processing times (sorted ascending) —
	// Figure 11's distribution.
	WorkerTimes []time.Duration
	Total       time.Duration
	Cost        pricing.USD
	CostLambda  pricing.USD
	CostS3      pricing.USD
}

// Run estimates one configuration.
func (m LambadaModel) Run(cfg RunConfig) *RunEstimate {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(cfg.M)*7919 + int64(cfg.F)*104729))
	files := int(float64(m.FilesPerSF1000) * cfg.SF / 1000)
	if files < 1 {
		files = 1
	}
	fileBytes := m.ParquetBytesSF1k / int64(m.FilesPerSF1000)
	workers := (files + cfg.F - 1) / cfg.F
	ln := netmodel.DefaultLambdaNet()

	colBytes := int64(float64(fileBytes) * cfg.Query.UsedColumnFraction)
	share := netmodel.CPUShare(cfg.M)
	threads := 1
	if share > 1 {
		threads = 2
	}
	cpuShare := share
	if cpuShare > float64(threads) {
		cpuShare = float64(threads)
	}

	times := make([]time.Duration, workers)
	var s3Requests int64
	var lambdaSeconds float64
	straggler := netmodel.Lognormal{Mu: -m.StragglerSigma * m.StragglerSigma / 2, Sigma: m.StragglerSigma, Scale: time.Second}
	for w := 0; w < workers; w++ {
		var t time.Duration
		pruned := rng.Float64() < cfg.Query.PruneFraction
		if pruned {
			// Footer only: prune all row groups, return empty (Fig. 11's
			// 100-200 ms band).
			t = m.HandlerOverhead + time.Duration(float64(cfg.F)*float64(m.MetaLatency)) +
				time.Duration(rng.Int63n(int64(50*time.Millisecond)))
			s3Requests += int64(cfg.F)
		} else {
			bucket := ln.NewBucket(cfg.M)
			download := bucket.Transfer(0, colBytes*int64(cfg.F), ln.RequestRate(m.Conns, cfg.M))
			cpu := time.Duration(float64(colBytes*int64(cfg.F)) / (m.CPUBytesPerVCPUSecond * cpuShare) * float64(time.Second))
			work := download
			if cpu > work {
				work = cpu
			}
			// Straggler noise around the deterministic work estimate, plus
			// the occasional slow S3 request a worker eats despite retries.
			factor := straggler.Sample(rng).Seconds()
			t = m.HandlerOverhead + time.Duration(float64(cfg.F)*float64(m.MetaLatency)) +
				time.Duration(float64(work)*factor)
			if rng.Float64() < m.TailProb {
				t += time.Duration(rng.Int63n(int64(m.TailMax)))
			}
			s3Requests += int64(cfg.F) * (1 + (colBytes+m.ChunkBytes-1)/m.ChunkBytes)
		}
		if cfg.Cold {
			t = time.Duration(float64(t) * m.ColdSlowdown)
		}
		times[w] = t
		billed := t
		if cfg.Cold {
			billed += m.ColdStart
		}
		lambdaSeconds += billed.Seconds()
	}
	sortDurations(times)

	start := m.ColdStart
	if !cfg.Cold {
		start = 15 * time.Millisecond
	}
	// One requester thread: the model reproduces the paper's measured ramp
	// (Figure 5), not the executor's concurrent pool.
	inv := invoke.TreeDuration(invoke.DriverPacing(m.Region, 1), invoke.WorkerPacing(m.Region), start, workers)
	collect := m.CollectBase + time.Duration(workers)*m.CollectPerMsg

	est := &RunEstimate{
		Workers:     workers,
		Invocation:  inv,
		WorkerTimes: times,
		Total:       inv + times[len(times)-1] + collect,
	}
	est.CostLambda = pricing.USD(lambdaSeconds*float64(cfg.M)/1024)*pricing.LambdaGBSecond +
		pricing.USD(workers)*pricing.LambdaPerRequest
	est.CostS3 = pricing.USD(s3Requests) * pricing.S3Read
	sqsCost := pricing.USD(2*workers) * pricing.SQSPerRequest
	est.Cost = est.CostLambda + est.CostS3 + sqsCost
	return est
}

// Figure10 sweeps worker memory (M) and files-per-worker (F) for Q1 at
// SF 1000, cold and hot — the three panels of Figure 10.
func Figure10(model LambadaModel, seed int64) *Table {
	t := &Table{ID: "Figure 10", Title: "TPC-H Q1 (SF 1000) with varying memory (M) and files per worker (F)",
		Headers: []string{"M [MiB]", "F", "workers", "run", "time", "cost"}}
	for _, mRow := range []int{512, 1024, 1792, 2048, 3008} {
		for _, f := range []int{1, 2, 4} {
			for _, cold := range []bool{true, false} {
				est := model.Run(RunConfig{Query: SpecQ1, SF: 1000, M: mRow, F: f, Cold: cold, Seed: seed})
				run := "hot"
				if cold {
					run = "cold"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", mRow),
					fmt.Sprintf("%d", f),
					fmt.Sprintf("%d", est.Workers),
					run,
					secs(est.Total),
					est.Cost.String(),
				})
			}
		}
	}
	return t
}

// Figure11 computes the per-worker processing-time distributions of Q1 and
// Q6 (F = 1, M = 1792).
func Figure11(model LambadaModel, seed int64) *Figure {
	f := &Figure{ID: "Figure 11", Title: "Distribution of processing time (SF 1000, F=1, M=1792)",
		XLabel: "worker rank", YLabel: "processing time [s]"}
	for _, q := range []QuerySpec{SpecQ1, SpecQ6} {
		est := model.Run(RunConfig{Query: q, SF: 1000, M: 1792, F: 1, Seed: seed})
		var s Series
		s.Label = q.Name
		for i, t := range est.WorkerTimes {
			s.Points = append(s.Points, Point{X: float64(i), Y: t.Seconds()})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Figure12Row is one system × query × scale sample of Figure 12.
type Figure12Row struct {
	System  string
	Query   string
	SF      float64
	Run     string // cold / hot / ""
	Latency time.Duration
	Cost    pricing.USD
}

// Figure12 compares Lambada (F=1, M=1792 and M=2048) with the QaaS models
// on Q1 and Q6 at SF 1k and 10k.
func Figure12(model LambadaModel, seed int64) []Figure12Row {
	athena := qaas.DefaultAthena()
	bq := qaas.DefaultBigQuery()
	var rows []Figure12Row
	for _, q := range []QuerySpec{SpecQ1, SpecQ6} {
		for _, sf := range []float64{1000, 10000} {
			for _, m := range []int{1792, 2048} {
				for _, cold := range []bool{true, false} {
					est := model.Run(RunConfig{Query: q, SF: sf, M: m, F: 1, Cold: cold, Seed: seed})
					run := "hot"
					if cold {
						run = "cold"
					}
					rows = append(rows, Figure12Row{
						System: fmt.Sprintf("Lambada(M=%d)", m), Query: q.Name, SF: sf,
						Run: run, Latency: est.Total, Cost: est.Cost,
					})
				}
			}
			a := athena.Run(q.QuerySpec, sf)
			rows = append(rows, Figure12Row{System: "Athena", Query: q.Name, SF: sf, Latency: a.Latency, Cost: a.Cost})
			b := bq.Run(q.QuerySpec, sf)
			rows = append(rows, Figure12Row{System: "BigQuery", Query: q.Name, SF: sf, Run: "hot", Latency: b.Latency, Cost: b.Cost})
			rows = append(rows, Figure12Row{System: "BigQuery", Query: q.Name, SF: sf, Run: "cold", Latency: b.ColdLatency(), Cost: b.Cost})
		}
	}
	return rows
}

// Figure12Table renders the comparison.
func Figure12Table(model LambadaModel, seed int64) *Table {
	t := &Table{ID: "Figure 12", Title: "Lambada vs commercial QaaS systems",
		Headers: []string{"system", "query", "SF", "run", "latency", "cost"}}
	for _, r := range Figure12(model, seed) {
		t.Rows = append(t.Rows, []string{
			r.System, r.Query, fmt.Sprintf("%.0f", r.SF), r.Run, secs(r.Latency), r.Cost.String(),
		})
	}
	return t
}
