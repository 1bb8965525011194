// Command lambada runs SQL queries on a simulated serverless deployment:
// it generates TPC-H LINEITEM data, uploads it to simulated S3 as lpq files,
// installs the worker function, executes the query on the fleet, and prints
// the result with a latency and cost report.
//
// Usage:
//
//	lambada -sf 0.01 -files 16 -query q1
//	lambada -query "SELECT COUNT(*) AS n FROM lineitem" -mode des
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/qaas"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/tpch"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor of the generated LINEITEM data")
		files    = flag.Int("files", 8, "number of lpq files the table is stored as")
		query    = flag.String("query", "q1", "q1, q6, join, q12 (two-large-sides join), or a SQL string over lineitem, supplier, orders")
		memory   = flag.Int("m", 1792, "worker memory in MiB")
		fPerW    = flag.Int("f", 1, "files per worker")
		gz       = flag.Bool("gzip", true, "GZIP-compress column chunks")
		mode     = flag.String("mode", "local", "local (goroutine workers) or des (virtual-time simulation)")
		seed     = flag.Int64("seed", 42, "data generation seed")
		explain  = flag.Bool("v", false, "record a trace and print the stage plan, with where the aggregate merges and why, per-worker processing times and, with -profile, the critical path span by span")
		parts    = flag.Int("partitions", 0, "exchange boundary fan-in (workers per join/final-merge stage); 0 = autotune from footer row counts")
		bcast    = flag.Int64("broadcast-limit", 0, "S3 build sides up to this many rows broadcast instead of shuffling (0 = default, negative = always shuffle)")
		spec     = flag.Bool("speculate", false, "re-invoke stragglers as backup attempts once a quorum reported")
		stgWait  = flag.Duration("max-stage-wait", time.Minute, "no-progress liveness cap: a runnable stage with no worker response for this long (window restarts per response) has its missing workers invoked at least that long ago re-invoked as the next attempt (with -speculate; 0 disables)")
		xlevels  = flag.Int("exchange-levels", 0, "force every stage boundary's round count: 1 = single-round, 2 = multi-level (intermediate regroup round); 0 = resolve per boundary from the analytic request model")
		fplan    = flag.String("fault-plan", "", "JSON fault plan file injected into the simulated substrate (with -mode des); see internal/awssim/faults")
		fseed    = flag.Int64("fault-seed", 0, "override the fault plan's seed (0 = keep the plan's own; with -fault-plan)")
		profile  = flag.Bool("profile", false, "EXPLAIN ANALYZE: record a trace and print the stage table's attempts, dollars and worker-seconds per phase, and the critical path by stage and phase")
		traceOut = flag.String("trace-out", "", "write the query's Chrome trace-event JSON to this file (implies tracing; open in Perfetto or chrome://tracing)")
	)
	flag.Parse()

	sql := *query
	switch strings.ToLower(sql) {
	case "q1":
		sql = tpch.Q1SQL
	case "q6":
		sql = tpch.Q6SQL
	case "join":
		sql = tpch.JoinSQL
	case "q12":
		sql = tpch.Q12SQL
	}
	plan, perr := sqlfe.Parse(sql)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "lambada:", perr)
		os.Exit(2)
	}
	// Tables beyond lineitem (supplier, orders) are generated alongside it
	// and upload to S3 too; the planner picks broadcast or shuffle per join
	// from the footer row counts.
	tables := planTables(plan, nil)
	if !tables["lineitem"] {
		fmt.Fprintln(os.Stderr, "lambada: query must scan the lineitem table")
		os.Exit(2)
	}
	for t := range tables {
		if t != "lineitem" && t != "supplier" && t != "orders" {
			fmt.Fprintf(os.Stderr, "lambada: unknown table %q (have lineitem, supplier, orders)\n", t)
			os.Exit(2)
		}
	}

	comp := lpq.None
	if *gz {
		comp = lpq.Gzip
	}
	cfg := driver.DefaultConfig()
	cfg.WorkerMemoryMiB = *memory
	cfg.FilesPerWorker = *fPerW
	cfg.Speculate = *spec

	run := func(dep *driver.Deployment, env simenv.Env) error {
		if *profile || *traceOut != "" || *explain {
			dep.EnableTracing(obs.New())
		}
		sess := driver.NewSession(dep, cfg)
		if err := sess.Install(); err != nil {
			return err
		}
		fmt.Printf("generating LINEITEM at SF %g (%d rows)...\n", *sf, tpch.Gen{SF: *sf}.NumRows())
		g := tpch.Gen{SF: *sf, Seed: *seed}
		data := g.Generate()
		refs, err := sess.UploadTable(env, "tpch", "lineitem", data, *files, lpq.WriterOptions{RowGroupRows: 65536, Compression: comp})
		if err != nil {
			return err
		}
		tf := driver.TableFiles{"lineitem": refs}
		for _, name := range []string{"supplier", "orders"} {
			if !tables[name] {
				continue
			}
			var chunk *columnar.Chunk
			if name == "supplier" {
				chunk = g.Supplier()
			} else {
				chunk = g.OrdersFor(data)
			}
			nf := max(*files/2, 1)
			fmt.Printf("uploading %s (%d rows, %d files)\n", strings.ToUpper(name), chunk.NumRows(), nf)
			tf[name], err = sess.UploadTable(env, "tpch", name, chunk, nf, lpq.WriterOptions{RowGroupRows: 65536, Compression: comp})
			if err != nil {
				return err
			}
		}
		fmt.Printf("uploaded %s total\n", byteSize(dep.S3.TotalBytes("tpch")))
		scfg := driver.DefaultStageConfig()
		scfg.Partitions = *parts
		scfg.BroadcastRowLimit = *bcast
		scfg.MaxStageWait = *stgWait
		scfg.Exchange.Variant.Levels = *xlevels
		out, rep, err := sess.Run(env, plan, tf, scfg)
		if err != nil {
			return err
		}
		printChunk(out)
		fmt.Println()
		driver.WriteReport(os.Stdout, rep, driver.RenderOptions{Verbose: *explain, Profile: *profile})
		if spec, ok := qaas.SpecFor(*query); ok {
			fmt.Print(qaas.Compare(spec, *sf, pricing.USD(rep.TotalCost), rep.Duration))
		}
		if *traceOut != "" {
			f, ferr := os.Create(*traceOut)
			if ferr != nil {
				return ferr
			}
			if ferr := obs.ExportChromeTrace(f, rep.Trace.Spans()); ferr != nil {
				f.Close()
				return ferr
			}
			if ferr := f.Close(); ferr != nil {
				return ferr
			}
			fmt.Printf("trace written to %s\n", *traceOut)
		}
		return nil
	}

	var chaosPlan faults.Plan
	if *fplan != "" {
		if *mode != "des" {
			fmt.Fprintln(os.Stderr, "lambada: -fault-plan requires -mode des (faults replay in virtual time)")
			os.Exit(2)
		}
		raw, rerr := os.ReadFile(*fplan)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "lambada:", rerr)
			os.Exit(2)
		}
		chaosPlan, rerr = faults.ParsePlan(raw)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "lambada: %s: %v\n", *fplan, rerr)
			os.Exit(2)
		}
		if *fseed != 0 {
			chaosPlan.Seed = *fseed
		}
	}

	var err error
	if *mode == "des" {
		k := simclock.New()
		k.Go("driver", func(p *simclock.Proc) {
			// Without -fault-plan the plan is empty: the plain simulated deployment.
			if e := run(driver.NewChaos(k, *seed, chaosPlan), p); e != nil {
				err = e
			}
		})
		k.Run()
	} else {
		err = run(driver.NewLocal(), simenv.NewImmediate())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambada:", err)
		os.Exit(1)
	}
}

// planTables collects every table the plan scans (join build sides
// included).
func planTables(p engine.Plan, dst map[string]bool) map[string]bool {
	if dst == nil {
		dst = map[string]bool{}
	}
	engine.VisitScans(p, func(s *engine.ScanPlan) { dst[s.Table] = true })
	return dst
}

func printChunk(c *columnar.Chunk) {
	for _, f := range c.Schema.Fields {
		fmt.Printf("%-18s", f.Name)
	}
	fmt.Println()
	for i := 0; i < c.NumRows(); i++ {
		for j, col := range c.Columns {
			switch c.Schema.Fields[j].Type {
			case columnar.Int64:
				fmt.Printf("%-18d", col.Int64s[i])
			case columnar.Float64:
				fmt.Printf("%-18.4f", col.Float64s[i])
			default:
				fmt.Printf("%-18v", col.Bools[i])
			}
		}
		fmt.Println()
	}
}

func byteSize(n int64) string {
	switch {
	case n > 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n > 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
