package driver

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/obs"
	"lambada/internal/stageplan"
)

// StageProfile is the EXPLAIN ANALYZE record of one stage: its StageStat
// (wall-clock virtual extent, fleet size, boundary variant), and the stage
// subtree's exact billed cost plus data volumes parsed off its
// worker-invocation spans.
type StageProfile struct {
	StageStat
	// Attempts counts the worker invocations traced under the stage
	// (original fleet + failure re-invocations + speculation backups).
	Attempts int
	// Rows is the stage's total output rows; BytesIn/BytesOut are the S3
	// bytes its workers read and wrote (exchange shuffle included).
	Rows     int64
	BytesIn  int64
	BytesOut int64
	// Cost is the stage subtree's exact billed attribution, USD its price.
	Cost obs.Cost
	USD  pricing.USD
}

// Profile is the query's EXPLAIN ANALYZE: per-stage records, the
// critical path through the span tree, and the whole-tree cost.
type Profile struct {
	QueryID  string
	Duration time.Duration
	Stages   []StageProfile
	// CriticalPath tiles [0, Duration] with the latency-bounding spans;
	// segment durations sum exactly to Duration.
	CriticalPath []obs.CriticalSegment
	// Cost aggregates the entire query subtree (driver + workers); USD
	// prices it. Matches the Report's meter deltas exactly (see the
	// trace determinism tests).
	Cost obs.Cost
	USD  pricing.USD
}

// Profile computes the query's execution profile from its trace. Returns
// nil when the report was produced without tracing.
func (rep *Report) Profile() *Profile {
	if rep.Trace == nil || rep.Span == 0 {
		return nil
	}
	tree := obs.NewTree(rep.Trace.Spans())
	p := &Profile{
		QueryID:      rep.QueryID,
		Duration:     rep.Duration,
		CriticalPath: tree.CriticalPath(rep.Span),
		Cost:         tree.SubtreeCost(rep.Span),
	}
	p.USD = pricing.Price(p.Cost)
	for _, ss := range rep.StageStats {
		sp := StageProfile{StageStat: ss}
		if ss.Span != 0 {
			tree.Walk(ss.Span, func(s *obs.Span) {
				sp.Cost.Add(s.Cost)
				if s.Kind == obs.KindInvoke {
					sp.Attempts++
					sp.Rows += tagInt64(s.Tags, "rows.out")
					sp.BytesIn += tagInt64(s.Tags, "bytes.in")
					sp.BytesOut += tagInt64(s.Tags, "bytes.out")
				}
			})
			sp.USD = pricing.Price(sp.Cost)
		}
		p.Stages = append(p.Stages, sp)
	}
	return p
}

func tagInt64(tags map[string]string, key string) int64 {
	n, _ := strconv.ParseInt(tags[key], 10, 64)
	return n
}

// RenderOptions configures WriteReport.
type RenderOptions struct {
	// Verbose adds the sorted per-worker processing times and, above a traced
	// report, the stage plan (stageplan.Explain: what shuffles, where the
	// aggregate merges and why).
	Verbose bool
	// Profile adds the EXPLAIN ANALYZE stage table and critical path
	// (requires the report to carry a trace; silently skipped otherwise).
	Profile bool
}

// WriteReport renders the post-query report — the single shared renderer
// for the CLI and any tool that replays a Report. Layout: fleet/latency
// line, per-stage seal timing, billed-cost breakdown, resilience
// counters, then the optional profile and per-worker sections.
func WriteReport(w io.Writer, rep *Report, opts RenderOptions) {
	if opts.Verbose && rep.Plan != nil {
		fmt.Fprint(w, stageplan.Explain(rep.Plan))
	}
	stages := ""
	if rep.Stages > 0 {
		stages = fmt.Sprintf("   stages: %d   epoch: %d", rep.Stages, rep.Epoch)
	}
	fmt.Fprintf(w, "workers: %d%s   latency: %v   invocation: %v   cold: %d   speculated: %d\n",
		rep.Workers, stages, rep.Duration.Round(time.Millisecond), rep.Invocation.Round(time.Millisecond),
		rep.ColdWorkers, rep.Speculated)
	for _, ss := range rep.StageStats {
		label := "stage"
		if ss.Regroup {
			label = "regroup"
		}
		boundary := ""
		if ss.Variant != "" {
			boundary = "   boundary " + ss.Variant
		}
		fmt.Fprintf(w, "  %s %d: %d workers   launched +%v   first +%v   sealed +%v   lag %v   speculated %d%s\n",
			label, ss.StageID, ss.Workers, ss.Launched.Round(time.Millisecond), ss.FirstWinner.Round(time.Millisecond),
			ss.Sealed.Round(time.Millisecond), (ss.Sealed - ss.LastWinner).Round(time.Millisecond), ss.Speculated, boundary)
	}
	fmt.Fprintf(w, "query cost: $%.6f\n", rep.TotalCost)
	lines, _ := pricing.Bill(rep.Cost)
	for _, l := range lines {
		fmt.Fprintf(w, "  %-20s $%.6f\n", l.Label, float64(l.USD))
	}
	if rep.DriverRetries+rep.WorkerRetries > 0 || rep.FailureSeals > 0 {
		fmt.Fprintf(w, "retries: driver %d   worker %d   failure seals: %d\n",
			rep.DriverRetries, rep.WorkerRetries, rep.FailureSeals)
	}
	if len(rep.InjectedFaults) > 0 {
		fmt.Fprintln(w, "injected faults:")
		for _, k := range sortedStringKeys(rep.InjectedFaults) {
			fmt.Fprintf(w, "  %-24s %d\n", k, rep.InjectedFaults[k])
		}
	}
	if opts.Profile {
		writeProfile(w, rep)
	}
	if opts.Verbose {
		fmt.Fprintln(w, "worker processing times (sorted):")
		for i, t := range rep.WorkerProcessing {
			fmt.Fprintf(w, "  worker[%3d] %v\n", i, t.Round(time.Millisecond))
		}
	}
}

// writeProfile renders the EXPLAIN ANALYZE section of a traced report.
func writeProfile(w io.Writer, rep *Report) {
	p := rep.Profile()
	if p == nil {
		return
	}
	if len(p.Stages) > 0 {
		fmt.Fprintln(w, "stage profile:")
		fmt.Fprintf(w, "  %-6s %8s %8s %9s %12s %12s %12s %12s %12s\n",
			"stage", "boundary", "attempts", "wall", "rows", "bytes in", "bytes out", "billed $", "s3 gets")
		for _, sp := range p.Stages {
			wall := sp.Sealed - sp.Launched
			id := strconv.Itoa(sp.StageID)
			if sp.Regroup {
				id += "rg"
			}
			boundary := sp.Variant
			if boundary == "" {
				boundary = "-"
			}
			fmt.Fprintf(w, "  %-6s %8s %8d %9v %12d %12d %12d %12.6f %12d\n",
				id, boundary, sp.Attempts, wall.Round(time.Millisecond),
				sp.Rows, sp.BytesIn, sp.BytesOut, float64(sp.USD), sp.Cost.S3Get)
		}
	}
	fmt.Fprintf(w, "traced cost: $%.6f   (lambda %.3f GiB·s, %d s3 gets, %d s3 puts, %d sqs, %d dynamo)\n",
		float64(p.USD), float64(p.Cost.LambdaMiBNs)/1024/1e9,
		p.Cost.S3Get, p.Cost.S3Put, p.Cost.SQSRequests, p.Cost.DynamoReads+p.Cost.DynamoWrites)
	if len(p.CriticalPath) > 0 {
		fmt.Fprintln(w, "critical path:")
		spans := rep.Trace.Spans()
		// Offsets are relative to the query span's start; zero-length
		// segments carry no latency and are elided from the rendering.
		var base time.Duration
		if root, ok := rep.Trace.Span(rep.Span); ok {
			base = root.Start
		}
		for _, seg := range p.CriticalPath {
			if seg.Duration() == 0 {
				continue
			}
			name, kind := "?", ""
			if int(seg.Span) <= len(spans) && seg.Span > 0 {
				s := spans[seg.Span-1]
				name, kind = s.Name, string(s.Kind)
			}
			fmt.Fprintf(w, "  +%-10v %9v  %-6s %s\n",
				(seg.From - base).Round(time.Millisecond), seg.Duration().Round(time.Millisecond), kind, name)
		}
	}
}

func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
