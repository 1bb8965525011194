package driver

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/obs"
	"lambada/internal/stageplan"
)

// StageProfile is the EXPLAIN ANALYZE record of one stage, a row of the
// stage table: its StageStat, and from the stage's span subtree its
// attempts, output rows, worker time per phase and exact billed cost.
type StageProfile struct {
	StageStat
	// Attempts counts the worker invocations traced under the stage
	// (original fleet + failure re-invocations + speculation backups).
	Attempts int
	// Rows is the stage's total output rows, tagged on its execute phases.
	Rows int64
	// Phases is the worker time of each phase, by name ("cold-start",
	// "execute", …), over every attempt.
	Phases map[string]PhaseTime
	// Cost is the stage subtree's exact billed attribution, USD its price.
	Cost obs.Cost
	USD  pricing.USD
}

// PhaseTime is the worker time of one phase in a stage: summed over the
// fleet, and the longest one invocation's.
type PhaseTime struct{ Sum, Max time.Duration }

// phaseOrder orders the stage table's phase columns as the worker path.
var phaseOrder = []string{"cold-start", "warm", "spawn", "wait-sealed", "collect", "regroup", "execute", "publish", "post"}

// pathRun is a stretch of the critical path, offsets from the query's start,
// spent under one stage span ("stage-1"; empty: the driver's) in one phase
// (empty: the driver between its phases, in its event loop).
type pathRun struct {
	Stage, Phase string
	From, To     time.Duration
}

// maxPathRuns bounds the printed critical path at any fleet size.
const maxPathRuns = 60

// Profile is the query's EXPLAIN ANALYZE: per-stage records, the
// critical path through the span tree, and the whole-tree cost.
type Profile struct {
	Stages []StageProfile
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
		CriticalPath: tree.CriticalPath(rep.Span),
		Cost:         tree.SubtreeCost(rep.Span),
	}
	p.USD = pricing.Price(p.Cost)
	for _, ss := range rep.StageStats {
		sp := StageProfile{StageStat: ss, Phases: map[string]PhaseTime{}}
		if ss.Span != 0 {
			tree.Walk(ss.Span, func(s *obs.Span) {
				sp.Cost.Add(s.Cost)
				switch s.Kind {
				case obs.KindInvoke:
					sp.Attempts++
				case obs.KindPhase:
					pt := sp.Phases[s.Name]
					pt.Sum += s.Duration()
					pt.Max = max(pt.Max, s.Duration())
					sp.Phases[s.Name] = pt
					n, _ := strconv.ParseInt(s.Tags["rows.out"], 10, 64)
					sp.Rows += n
				}
			})
			sp.USD = pricing.Price(sp.Cost)
		}
		p.Stages = append(p.Stages, sp)
	}
	return p
}

// pathRuns folds a critical path into runs of (stage, phase): each segment
// is labelled by its span's nearest phase and stage, ancestors or itself,
// and neighbours with one label merge. Past maxPathRuns the shortest run
// folds into its longer neighbour until they fit.
func pathRuns(spans []obs.Span, path []obs.CriticalSegment, base time.Duration) []pathRun {
	var runs []pathRun
	for _, seg := range path {
		if seg.Duration() == 0 {
			continue
		}
		r := pathRun{From: seg.From - base, To: seg.To - base}
		for id := seg.Span; id != 0 && r.Stage == ""; id = spans[id-1].Parent {
			switch s := spans[id-1]; {
			case s.Kind == obs.KindPhase && r.Phase == "":
				r.Phase = s.Name
			case s.Kind == obs.KindStage:
				r.Stage = s.Name
			}
		}
		runs = appendRun(runs, r)
	}
	for len(runs) > maxPathRuns {
		// Fold the shortest run into its longer neighbour, and that into its
		// other neighbour when the two now share a label.
		dur := func(i int) time.Duration { return runs[i].To - runs[i].From }
		i := 0
		for j := range runs {
			if dur(j) < dur(i) {
				i = j
			}
		}
		into := i - 1
		if i == 0 || i+1 < len(runs) && dur(i+1) > dur(i-1) {
			into = i + 1
		}
		lo, r := min(i, into), runs[into]
		r.From, r.To = runs[lo].From, runs[lo+1].To
		runs = appendRun(appendRun(slices.Clone(runs[:lo]), r), runs[lo+2:]...)
	}
	return runs
}

// appendRun appends runs to path, each merging into the last when they
// share a label.
func appendRun(path []pathRun, runs ...pathRun) []pathRun {
	for _, r := range runs {
		if n := len(path); n > 0 && path[n-1].Stage == r.Stage && path[n-1].Phase == r.Phase {
			path[n-1].To = r.To
		} else {
			path = append(path, r)
		}
	}
	return path
}

// RenderOptions configures WriteReport.
type RenderOptions struct {
	// Verbose adds the sorted per-worker processing times, above a traced
	// report the stage plan (stageplan.Explain: what shuffles, where the
	// aggregate merges and why), and under a profile its critical path span
	// by span.
	Verbose bool
	// Profile adds the stage table's trace columns and the critical path
	// (requires the report to carry a trace; silently skipped otherwise).
	Profile bool
}

// WriteReport renders the post-query report — the single shared renderer
// for the CLI and any tool that replays a Report. Layout: fleet/latency
// line, the stage table, billed-cost breakdown, resilience counters, then
// the optional critical path and per-worker sections.
func WriteReport(w io.Writer, rep *Report, opts RenderOptions) {
	if opts.Verbose && rep.Plan != nil {
		fmt.Fprint(w, stageplan.Explain(rep.Plan))
	}
	var p *Profile
	if opts.Profile {
		p = rep.Profile()
	}
	stages := ""
	if rep.Stages > 0 {
		stages = fmt.Sprintf("   stages: %d   epoch: %d", rep.Stages, rep.Epoch)
	}
	fmt.Fprintf(w, "workers: %d%s   latency: %v   invocation: %v   cold: %d   speculated: %d\n",
		rep.Workers, stages, rep.Duration.Round(time.Millisecond), rep.Invocation.Round(time.Millisecond),
		rep.ColdWorkers, rep.Speculated)
	writeStageTable(w, rep, p)
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
		kinds := make([]string, 0, len(rep.InjectedFaults))
		for k := range rep.InjectedFaults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "  %-24s %d\n", k, rep.InjectedFaults[k])
		}
	}
	if p != nil {
		writeCriticalPath(w, rep, p, opts.Verbose)
	}
	if opts.Verbose {
		fmt.Fprintln(w, "worker processing times (sorted):")
		for i, t := range rep.WorkerProcessing {
			fmt.Fprintf(w, "  worker[%3d] %v\n", i, t.Round(time.Millisecond))
		}
	}
}

// writeStageTable renders one row per stage run: its StageStat, offsets from
// the query's start, and with a profile its attempts, billed dollars and
// each phase's worker-seconds as fleet sum/max.
func writeStageTable(w io.Writer, rep *Report, p *Profile) {
	if len(rep.StageStats) == 0 {
		return
	}
	var phases []string // the columns some stage has
	for _, name := range phaseOrder {
		if p != nil && slices.ContainsFunc(p.Stages, func(sp StageProfile) bool { _, ok := sp.Phases[name]; return ok }) {
			phases = append(phases, name)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	header := "  stage\tworkers\tlaunched\tfirst\tlast\tsealed\tlag\tspec\tboundary\t"
	if p != nil {
		header += "attempts\tbilled $\t" + strings.Join(phases, "\t") + "\t"
	}
	fmt.Fprintln(tw, header)
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	for i, ss := range rep.StageStats {
		id := strconv.Itoa(ss.StageID)
		if ss.Regroup {
			id += "rg"
		}
		fmt.Fprintf(tw, "  %s\t%d\t+%v\t+%v\t+%v\t+%v\t%v\t%d\t%s\t", id, ss.Workers, ms(ss.Launched), ms(ss.FirstWinner),
			ms(ss.LastWinner), ms(ss.Sealed), ms(ss.Sealed-ss.LastWinner), ss.Speculated, cmp.Or(ss.Variant, "-"))
		if p != nil {
			sp := p.Stages[i]
			fmt.Fprintf(tw, "%d\t%.6f\t", sp.Attempts, float64(sp.USD))
			for _, name := range phases {
				if pt, ok := sp.Phases[name]; ok {
					fmt.Fprintf(tw, "%.2f/%.2f\t", pt.Sum.Seconds(), pt.Max.Seconds())
				} else {
					fmt.Fprint(tw, "-\t")
				}
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// writeCriticalPath renders the traced cost and the critical path: its runs
// of (stage, phase), and under verbose every span on it.
func writeCriticalPath(w io.Writer, rep *Report, p *Profile, verbose bool) {
	fmt.Fprintf(w, "traced cost: $%.6f   (lambda %.3f GiB·s, %d s3 gets, %d s3 puts, %d sqs, %d dynamo)\n",
		float64(p.USD), float64(p.Cost.LambdaMiBNs)/1024/1e9,
		p.Cost.S3Get, p.Cost.S3Put, p.Cost.SQSRequests, p.Cost.DynamoReads+p.Cost.DynamoWrites)
	spans := rep.Trace.Spans()
	base := spans[rep.Span-1].Start
	fmt.Fprintln(w, "critical path (stage, phase):")
	for _, r := range pathRuns(spans, p.CriticalPath, base) {
		fmt.Fprintf(w, "  +%-10v %9v  %-11s %s\n", r.From.Round(time.Millisecond), (r.To - r.From).Round(time.Millisecond),
			cmp.Or(r.Stage, "driver"), cmp.Or(r.Phase, "-"))
	}
	if !verbose {
		return
	}
	fmt.Fprintln(w, "critical path (spans):")
	for _, seg := range p.CriticalPath {
		if seg.Duration() == 0 {
			continue // carries no latency
		}
		s := spans[seg.Span-1]
		fmt.Fprintf(w, "  +%-10v %9v  %-6s %s\n",
			(seg.From - base).Round(time.Millisecond), seg.Duration().Round(time.Millisecond), s.Kind, s.Name)
	}
}
