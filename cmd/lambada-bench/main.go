// Command lambada-bench regenerates every table and figure of the paper's
// evaluation, printing the same rows/series the paper reports.
//
// Usage:
//
//	lambada-bench            # everything
//	lambada-bench -exp fig5  # one experiment
//	lambada-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lambada/internal/experiments"
)

type exp struct {
	name string
	desc string
	run  func(seed int64) (string, error)
}

var all = []exp{
	{"fig1a", "Job-scoped IaaS vs FaaS cost/time frontier", func(int64) (string, error) {
		return experiments.Figure1aFigure().Render(), nil
	}},
	{"fig1b", "Always-on VMs vs QaaS vs FaaS hourly cost", func(int64) (string, error) {
		return experiments.Figure1b(experiments.DefaultFigure1b()).Render(), nil
	}},
	{"table1", "Invocation characteristics per region", func(int64) (string, error) {
		return experiments.Table1().Render(), nil
	}},
	{"fig4", "Compute performance vs memory size", func(int64) (string, error) {
		return experiments.Figure4().Render(), nil
	}},
	{"fig5", "Two-level invocation of 4096 workers (DES)", func(seed int64) (string, error) {
		cfg := experiments.DefaultFigure5()
		cfg.Seed = seed
		res := experiments.Figure5(cfg)
		s := experiments.Figure5Figure(res).Render()
		s += fmt.Sprintf("last invocation initiated: %v\nall workers running: %v\ndriver-only estimate: %v\n",
			res.LastInitiated, res.AllRunning, res.DirectEstimate)
		return s, nil
	}},
	{"fig6", "Worker ingress bandwidth (large/small files)", func(int64) (string, error) {
		large, small := experiments.Figure6()
		return large.Render() + small.Render(), nil
	}},
	{"fig7", "Chunk size vs bandwidth and request cost", func(int64) (string, error) {
		return experiments.Figure7Table().Render(), nil
	}},
	{"fig9", "Exchange request costs per variant", func(int64) (string, error) {
		return experiments.Figure9().Render(), nil
	}},
	{"table2", "Exchange cost models", func(int64) (string, error) {
		return experiments.Table2().Render(), nil
	}},
	{"fig10", "Q1 cost vs time varying M and F", func(seed int64) (string, error) {
		return experiments.Figure10(experiments.DefaultLambadaModel(), seed).Render(), nil
	}},
	{"fig11", "Per-worker processing time distribution", func(seed int64) (string, error) {
		fig := experiments.Figure11(experiments.DefaultLambadaModel(), seed)
		// The full distribution has 320 points per query; summarize.
		s := fmt.Sprintf("== %s: %s ==\n", fig.ID, fig.Title)
		for _, series := range fig.Series {
			n := len(series.Points)
			s += fmt.Sprintf("-- %s: p0=%.2fs p25=%.2fs p50=%.2fs p75=%.2fs p100=%.2fs\n",
				series.Label,
				series.Points[0].Y, series.Points[n/4].Y, series.Points[n/2].Y,
				series.Points[3*n/4].Y, series.Points[n-1].Y)
		}
		return s, nil
	}},
	{"fig12", "Lambada vs Athena vs BigQuery", func(seed int64) (string, error) {
		return experiments.Figure12Table(experiments.DefaultLambadaModel(), seed).Render(), nil
	}},
	{"table3", "Exchange runtime vs Pocket/Locus (100 GB, DES)", func(seed int64) (string, error) {
		t, err := experiments.Table3(seed)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"fig13", "Exchange breakdown and stragglers (DES)", func(seed int64) (string, error) {
		t, err := experiments.Figure13Table(seed)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}},
	{"session", "Usage-model session economics (Figure 2 synthesis)", func(seed int64) (string, error) {
		cfg := experiments.DefaultSession()
		cfg.Seed = seed
		return experiments.SessionTable(cfg).Render(), nil
	}},
}

func main() {
	var (
		which = flag.String("exp", "all", "experiment name or 'all'")
		seed  = flag.Int64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()

	if *list {
		for _, e := range all {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range all {
		if *which != "all" && !strings.EqualFold(*which, e.name) {
			continue
		}
		out, err := e.run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lambada-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "lambada-bench: unknown experiment %q (use -list)\n", *which)
		os.Exit(1)
	}
}
