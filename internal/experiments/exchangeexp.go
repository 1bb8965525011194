package experiments

import (
	"fmt"
	"sync"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/exchange"
	"lambada/internal/netmodel"
	"lambada/internal/resilience"
	"lambada/internal/simclock"
)

// Figure9 evaluates the Table 2 cost models for the six exchange variants
// across worker counts — the bars of Figure 9 (per-worker read+write cost)
// plus the worker-cost band.
func Figure9() *Table {
	t := &Table{ID: "Figure 9", Title: "Cost of S3-based exchange algorithms (per worker)",
		Headers: []string{"P", "variant", "read cost/worker", "write cost/worker", "total/worker", "worker band lo", "worker band hi"}}
	for _, p := range []int{64, 256, 1024, 4096, 16384} {
		for _, v := range exchange.AllVariants {
			readC := pricing.USD(v.Reads(p)) * pricing.S3Read / pricing.USD(p)
			writeC := pricing.USD(v.Writes(p)) * pricing.S3Write / pricing.USD(p)
			lo := v.WorkerCost(p, 100<<20) / pricing.USD(p)
			hi := v.WorkerCost(p, 3<<30) / pricing.USD(p) // three scans of 1 GiB
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p), v.String(),
				fmt.Sprintf("%.3g", float64(readC)),
				fmt.Sprintf("%.3g", float64(writeC)),
				fmt.Sprintf("%.3g", float64(readC+writeC)),
				fmt.Sprintf("%.3g", float64(lo)),
				fmt.Sprintf("%.3g", float64(hi)),
			})
		}
	}
	return t
}

// Table2 renders the request-complexity formulas evaluated symbolically.
func Table2() *Table {
	t := &Table{ID: "Table 2", Title: "Cost models of S3-based exchange algorithms (counts at P=1024)",
		Headers: []string{"algorithm", "#reads", "#writes", "#lists", "#scans"}}
	const p = 1024
	for _, v := range exchange.AllVariants {
		t.Rows = append(t.Rows, []string{
			v.String(),
			fmt.Sprintf("%.0f", v.Reads(p)),
			fmt.Sprintf("%.0f", v.Writes(p)),
			fmt.Sprintf("%.0f", v.Lists(p)),
			fmt.Sprintf("%d", v.Scans()),
		})
	}
	return t
}

// ExchangeRunConfig parameterizes a DES execution of the synthetic exchange.
type ExchangeRunConfig struct {
	Workers    int
	TotalBytes int64
	Variant    exchange.Variant
	Buckets    int
	MemoryMiB  int
	Seed       int64
	// StragglerSigma scales per-worker bandwidth variation (0 = uniform).
	// The heavy tail of per-worker write bandwidth is what produces the
	// stragglers of Figure 13.
	StragglerSigma float64
	// ReadInput adds an input-scan phase before the exchange.
	ReadInput bool
}

// WorkerResult is one worker's outcome.
type WorkerResult struct {
	ID        int
	ReadInput time.Duration
	Trace     *exchange.Trace
	Total     time.Duration
}

// ExchangeRunResult is a DES exchange execution.
type ExchangeRunResult struct {
	Config   ExchangeRunConfig
	Duration time.Duration // end-to-end (slowest worker)
	Workers  []WorkerResult
	Fastest  time.Duration
}

// RunExchangeDES executes the synthetic exchange on the DES kernel with
// rate limits, request latencies and per-worker bandwidth shaping.
func RunExchangeDES(cfg ExchangeRunConfig) (*ExchangeRunResult, error) {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.DefaultAWSConfig(meter, cfg.Seed))
	var buckets []string
	for i := 0; i < cfg.Buckets; i++ {
		b := fmt.Sprintf("xshard-%d", i)
		buckets = append(buckets, b)
		svc.MustCreateBucket(b)
	}
	opts := exchange.DefaultOptions(cfg.Variant, buckets...)
	opts.Poll = 250 * time.Millisecond
	opts.MaxWait = time.Hour

	perWorker := cfg.TotalBytes / int64(cfg.Workers)
	res := &ExchangeRunResult{Config: cfg, Workers: make([]WorkerResult, cfg.Workers)}
	var mu sync.Mutex
	var firstErr error
	straggle := netmodel.Lognormal{Mu: 0, Sigma: cfg.StragglerSigma, Scale: time.Second}

	for wid := 0; wid < cfg.Workers; wid++ {
		k.Go(fmt.Sprintf("xw%d", wid), func(p *simclock.Proc) {
			// Per-worker bandwidth factor: a heavy-tailed slowdown models
			// the degraded instances that become stragglers at scale.
			net := netmodel.DefaultLambdaNet()
			if cfg.StragglerSigma > 0 {
				rng := deterministicRand(cfg.Seed, wid)
				factor := straggle.Sample(rng).Seconds()
				if factor < 0.7 {
					factor = 0.7
				}
				net.Sustained = netmodel.Rate(float64(net.Sustained) / factor)
				net.Burst = netmodel.Rate(float64(net.Burst) / factor)
				net.PerConnection = netmodel.Rate(float64(net.PerConnection) / factor)
			}
			client := s3.NewClient(svc, p, s3.WithShaper(net, cfg.MemoryMiB), s3.WithPolicy(resilience.Policy{Seed: int64(wid)}))
			start := p.Now()
			var readInput time.Duration
			if cfg.ReadInput {
				rs := p.Now()
				client.Get("xshard-0", "input", 4) // modeled input scan
				readInput = p.Now() - rs
			}
			wk := exchange.Worker{ID: wid, P: cfg.Workers, Client: client}
			_, trace, err := wk.RunSyntheticTraced(opts, perWorker)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", wid, err)
			}
			res.Workers[wid] = WorkerResult{ID: wid, ReadInput: readInput, Trace: trace, Total: p.Now() - start}
			mu.Unlock()
		})
	}
	if cfg.ReadInput {
		env := newZeroEnv()
		svc.PutSynthetic(env, "xshard-0", "input", perWorker)
	}
	end := k.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Duration = end
	res.Fastest = res.Workers[0].Total
	for _, w := range res.Workers {
		if w.Total < res.Fastest {
			res.Fastest = w.Total
		}
	}
	return res, nil
}

// Table3 runs the 100 GB shuffle on 250/500/1000 workers (2-level exchange
// with write combining) and reports the published Pocket and Locus numbers
// alongside.
func Table3(seed int64) (*Table, error) {
	t := &Table{ID: "Table 3", Title: "Running time of S3-based exchange operators (100 GB)",
		Headers: []string{"system", "workers", "storage", "time"}}
	t.Rows = append(t.Rows,
		[]string{"Pocket [18]", "250", "VMs", "58s"},
		[]string{"Pocket [18]", "500", "VMs", "28s"},
		[]string{"Pocket [18]", "1000", "VMs", "18s"},
		[]string{"Pocket baseline [18]", "250", "S3", "98s"},
		[]string{"Locus [21]", "dynamic", "mixed", "80s to 140s"},
	)
	for _, workers := range []int{250, 500, 1000} {
		res, err := RunExchangeDES(ExchangeRunConfig{
			Workers:    workers,
			TotalBytes: 100 * netmodel.GB,
			Variant:    exchange.Variant{Levels: 2, WriteCombining: true},
			Buckets:    32,
			MemoryMiB:  2048,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"Lambada", fmt.Sprintf("%d", workers), "S3", secs(res.Duration)})
	}
	return t, nil
}

// LargeShuffles runs the 1 TB / 1250-worker and 3 TB / 2500-worker
// configurations reported in §5.5.
func LargeShuffles(seed int64) (*Table, error) {
	t := &Table{ID: "Section 5.5", Title: "Exchange at TB scale",
		Headers: []string{"data", "workers", "time"}}
	cases := []struct {
		bytes   int64
		workers int
	}{
		{1 * netmodel.TB, 1250},
		{3 * netmodel.TB, 2500},
	}
	for _, c := range cases {
		res, err := RunExchangeDES(ExchangeRunConfig{
			Workers:        c.workers,
			TotalBytes:     c.bytes,
			Variant:        exchange.Variant{Levels: 2, WriteCombining: true},
			Buckets:        64,
			MemoryMiB:      2048,
			Seed:           seed,
			StragglerSigma: stragglerSigmaFor(c.workers),
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d TB", c.bytes/netmodel.TB),
			fmt.Sprintf("%d", c.workers), secs(res.Duration),
		})
	}
	return t, nil
}

// stragglerSigmaFor grows the bandwidth-variation tail with scale: the
// paper observes the slowest worker ~30 % above median at 1250 workers and
// ~4× at 2500.
func stragglerSigmaFor(workers int) float64 {
	if workers >= 2000 {
		return 0.35
	}
	return 0.08
}

// Figure13Result carries the phase breakdown of a TB-scale shuffle.
type Figure13Result struct {
	Run *ExchangeRunResult
	// Breakdown is the fastest observed duration per phase (the paper's
	// "informal lower bound").
	FastestPerPhase map[string]time.Duration
	// MedianTotal and SlowestTotal summarize the straggler effect.
	MedianTotal, SlowestTotal time.Duration
	// MedianWrite and SlowestWrite summarize round-1 write stragglers.
	MedianWrite, SlowestWrite time.Duration
}

// Figure13 runs one TB-scale configuration and computes the breakdown.
func Figure13(totalBytes int64, workers int, seed int64) (*Figure13Result, error) {
	res, err := RunExchangeDES(ExchangeRunConfig{
		Workers:        workers,
		TotalBytes:     totalBytes,
		Variant:        exchange.Variant{Levels: 2, WriteCombining: true},
		Buckets:        64,
		MemoryMiB:      2048,
		Seed:           seed,
		StragglerSigma: stragglerSigmaFor(workers),
		ReadInput:      true,
	})
	if err != nil {
		return nil, err
	}
	out := &Figure13Result{Run: res, FastestPerPhase: map[string]time.Duration{}}
	var totals, writes []time.Duration
	for _, w := range res.Workers {
		totals = append(totals, w.Total)
		if len(w.Trace.Rounds) > 0 {
			writes = append(writes, w.Trace.Rounds[0].Write)
		}
		phases := map[string]time.Duration{
			"read input":    w.ReadInput,
			"round 1 write": w.Trace.Rounds[0].Write,
			"round 1 wait":  w.Trace.Rounds[0].Wait,
			"round 1 read":  w.Trace.Rounds[0].Read,
			"round 2 write": w.Trace.Rounds[1].Write,
			"round 2 wait":  w.Trace.Rounds[1].Wait,
			"round 2 read":  w.Trace.Rounds[1].Read,
		}
		for name, d := range phases {
			if cur, ok := out.FastestPerPhase[name]; !ok || d < cur {
				out.FastestPerPhase[name] = d
			}
		}
	}
	sortDurations(totals)
	sortDurations(writes)
	out.MedianTotal = percentile(totals, 0.5)
	out.SlowestTotal = totals[len(totals)-1]
	out.MedianWrite = percentile(writes, 0.5)
	out.SlowestWrite = writes[len(writes)-1]
	return out, nil
}

// Figure13Table renders both TB-scale configurations.
func Figure13Table(seed int64) (*Table, error) {
	t := &Table{ID: "Figure 13", Title: "Break-down and straggler analysis of TwoLevelExchange",
		Headers: []string{"dataset", "workers", "end-to-end", "fastest worker", "median write", "slowest write", "slow/median"}}
	cases := []struct {
		bytes   int64
		workers int
	}{
		{1 * netmodel.TB, 1250},
		{3 * netmodel.TB, 2500},
	}
	for _, c := range cases {
		r, err := Figure13(c.bytes, c.workers, seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d TB", c.bytes/netmodel.TB),
			fmt.Sprintf("%d", c.workers),
			secs(r.Run.Duration),
			secs(r.Run.Fastest),
			secs(r.MedianWrite),
			secs(r.SlowestWrite),
			fmt.Sprintf("%.2fx", r.SlowestWrite.Seconds()/r.MedianWrite.Seconds()),
		})
	}
	return t, nil
}
