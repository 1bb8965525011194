package main

import (
	"fmt"
	"io"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them. 0 for fewer than two runs.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compareFiles sets two -record files side by side: per workload and
// end-to-end metric both medians, the change, the bound, and a verdict —
// ok, regressed (worse by more than the bound) or unresolved (either
// side's own run-to-run spread is wider than the bound, so the change
// cannot be told from noise) — then the ungated diagnostics with their
// spreads. Files from different CPU counts are refused.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("nothing to compare: %d and %d runs", len(a), len(b))
	}
	for _, r := range append(append([]runRecord{}, a...), b...) {
		if r.Env.NProc != a[0].Env.NProc || r.Env.GOMAXPROCS != a[0].Env.GOMAXPROCS {
			return fmt.Errorf("refusing to compare runs from different CPU counts: nproc %d/GOMAXPROCS %d and nproc %d/GOMAXPROCS %d",
				a[0].Env.NProc, a[0].Env.GOMAXPROCS, r.Env.NProc, r.Env.GOMAXPROCS)
		}
	}
	values := func(recs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload != workload || r.Traced {
				continue
			}
			if m, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			} else if m, ok := r.Diagnostics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(out, "%-14s %-30s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "change", "bound", "spread a", "spread b", "verdict")
	regressed := 0
	for _, w := range workloads {
		// End-to-end metrics carry a bound and a verdict; the untraced runs'
		// diagnostics (per-layer names) are listed after them without one.
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			xa, xb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			change := (mb - ma) / ma
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*d.Bound)
			switch {
			case d.Bound == 0:
				verdict, bound = "diagnostic", "-"
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-30s %14.6g %14.6g %+7.2f%% %6s %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
				w.name, d.Name, ma, mb, 100*change, bound, 100*sa, 100*sb, verdict, len(xa), len(xb))
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
