package driver

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// tracedRun is one traced execution — staged q12, or single-scope q1.
type tracedRun struct {
	rep   *Report
	trace []byte // Chrome trace-event export
}

// tracedOpts parameterizes runTraced.
type tracedOpts struct {
	single bool  // single-scope q1 over lineitem instead of staged q12
	chaos  bool  // seeded FaultPlan deployment instead of the clean one
	crash  bool  // workers dying mid-handler and on invoke instead
	flat   bool  // single-level exchange without write combining
	seed   int64 // deployment seed; 0 is the suite's 71
}

// crashPlanQ12 kills workers: the second and third invocations die 120 ms
// into their handler — partial duration billed to the invocation span, op
// spans unwound without a Pop — and the fifth dies before its handler runs:
// an original of the three-stage plan's last fleet, so that its backup, the
// one re-invocation a worker gets, is not the invocation that is killed.
func crashPlanQ12() faults.Plan {
	return faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Skip: 1, Count: 2, Delay: 120 * time.Millisecond},
		{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: 4, Count: 1},
	}}
}

// runTraced executes the query with tracing enabled on a fresh DES kernel
// — the chaos harness plus EnableTracing — and exports the trace.
func runTraced(t *testing.T, o tracedOpts) tracedRun {
	t.Helper()
	if o.seed == 0 {
		o.seed = 71
	}
	plan := faults.Plan{}
	switch {
	case o.chaos:
		plan = chaosPlanQ12()
	case o.crash:
		plan = crashPlanQ12()
	}
	cfg := desConfig()
	cfg.Speculate = true
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	if o.crash {
		scfg.MaxStageWait = 30 * time.Second
	}
	if o.flat {
		scfg.Exchange.Variant.Levels = 1
		scfg.Exchange.Variant.WriteCombining = false
	}
	var res tracedRun
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewChaos(k, o.seed, plan)
		dep.EnableTracing(obs.New())
		return dep
	}, cfg, stdLayout, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		var out *columnar.Chunk
		if o.single {
			out, res.rep, err = d.RunSQL(p, q1SQL, "lineitem", tables["lineitem"])
		} else {
			out, res.rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		}
		if err == nil && out.NumRows() == 0 {
			err = errors.New("empty result")
		}
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		err = obs.ExportChromeTrace(&buf, res.rep.Trace.Spans())
		res.trace = buf.Bytes()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceExportByteIdentical: two runs of the same seeded query — chaos
// plan included — export byte-identical Chrome traces, on both exchange
// variants and for a single-scope query. This is the observability determinism contract: the trace is
// a function of the seed, not of host scheduling.
func TestTraceExportByteIdentical(t *testing.T) {
	for name, o := range map[string]tracedOpts{
		"tree-wc": {chaos: true},
		"flat":    {chaos: true, flat: true},
		"single":  {chaos: true, single: true},
	} {
		t.Run(name, func(t *testing.T) {
			a := runTraced(t, o)
			b := runTraced(t, o)
			if !bytes.Equal(a.trace, b.trace) {
				t.Errorf("trace exports differ (%d vs %d bytes)", len(a.trace), len(b.trace))
			}
			if n, err := obs.ValidateChromeTrace(a.trace); err != nil || n == 0 {
				t.Errorf("exported trace invalid: %d events, %v", n, err)
			}
		})
	}
}

// TestTraceCostAttributionExact: the query's span subtree carries exactly
// what the meter moved over the query's window — every billed unit lands on
// exactly one span, none dropped, none double-counted — compared as one
// struct. Runs under the chaos plan (retries, duplicate delivery, throttles)
// and the crash plan (partial durations, op spans a panic unwound past), on
// both exchange variants, and for a single-scope query as well as the
// staged one: the same executor opens the same query → stage → invoke tree.
func TestTraceCostAttributionExact(t *testing.T) {
	for name, o := range map[string]tracedOpts{
		"clean":        {},
		"chaos":        {chaos: true},
		"chaos-flat":   {chaos: true, flat: true},
		"crash":        {crash: true},
		"clean-single": {single: true},
		"chaos-single": {single: true, chaos: true},
	} {
		t.Run(name, func(t *testing.T) {
			r := runTraced(t, o)
			if o.crash && r.rep.InjectedFaults[faults.OpLambda+"/"+string(faults.KindCrashMidRun)] != 2 {
				t.Errorf("injected faults = %v, want two workers crashed mid-run", r.rep.InjectedFaults)
			}
			traced := r.rep.Profile().Cost
			if traced != r.rep.Cost {
				t.Errorf("spans carry %+v\nmeter moved %+v", traced, r.rep.Cost)
			}
			if traced.LambdaMiBNs == 0 || traced.S3ReadBytes == 0 || traced.SQSRequests == 0 {
				t.Errorf("attribution is missing a whole service: %+v", traced)
			}
			if got, want := r.rep.TotalCost, float64(pricing.Price(traced)); got != want {
				t.Errorf("report total $%.15f, priced span cost $%.15f", got, want)
			}
		})
	}
}

// TestCriticalPathSumsToDuration: the critical path tiles the query span,
// so its segment durations sum exactly to the report's end-to-end virtual
// latency.
func TestCriticalPathSumsToDuration(t *testing.T) {
	for _, single := range []bool{false, true} {
		r := runTraced(t, tracedOpts{single: single})
		p := r.rep.Profile()
		if p == nil {
			t.Fatalf("single=%v: traced report has no profile", single)
		}
		if len(p.CriticalPath) == 0 {
			t.Fatalf("single=%v: empty critical path", single)
		}
		var sum time.Duration
		for _, seg := range p.CriticalPath {
			sum += seg.Duration()
		}
		if sum != r.rep.Duration {
			t.Errorf("single=%v: critical path sums to %v, report duration %v", single, sum, r.rep.Duration)
		}
		// Per-stage profile sanity: every stage — the single-scope query's
		// one stage included — carries workers, rows and cost.
		if len(p.Stages) == 0 || len(p.Stages) != len(r.rep.StageStats) {
			t.Fatalf("single=%v: profile has %d stages, report %d", single, len(p.Stages), len(r.rep.StageStats))
		}
		for _, sp := range p.Stages {
			if sp.Attempts == 0 {
				t.Errorf("single=%v: stage %d: no traced attempts", single, sp.StageID)
			}
			if sp.Rows == 0 {
				t.Errorf("single=%v: stage %d: no output rows traced", single, sp.StageID)
			}
			if sp.Cost.IsZero() {
				t.Errorf("single=%v: stage %d: no attributed cost", single, sp.StageID)
			}
		}
	}
}

// TestKeyedBroadcastReducesWakeups: keying the completion broadcast by
// (table,key)/prefix delivers only the wake-ups a waiter asked for. On the
// staged q12 the topics anyone waits on are the result queue (the driver's
// loop: one waiter per SQS Send), the ready markers (at most every worker
// per DynamoDB write) and a launch pass's exit (one per pass, fewer than the
// Invokes) — so the wake-ups stay under that bound: the boundary objects' S3
// Puts, which no staged reader waits on, wake nobody but the traced query's
// closing wildcard park (quiesce), which the margin covers. Five seeds; the
// counter must be wired.
func TestKeyedBroadcastReducesWakeups(t *testing.T) {
	for seed := int64(71); seed < 76; seed++ {
		r := runTraced(t, tracedOpts{seed: seed})
		c := r.rep.Cost
		bound := uint64(c.SQSRequests + c.LambdaInvokes + c.DynamoWrites*int64(r.rep.Workers))
		if r.rep.Wakeups == 0 {
			t.Fatalf("seed %d: the run recorded no wakeups (counter not wired?)", seed)
		}
		if r.rep.Wakeups > bound {
			t.Errorf("seed %d: %d wakeups, over the %d the awaited topics can deliver", seed, r.rep.Wakeups, bound)
		}
		t.Logf("seed %d: %v, %d wakeups (bound %d), %d polls", seed, r.rep.Duration, r.rep.Wakeups, bound, c.DynamoReads)
	}
}

// TestPhasesTileQ12: the 260-worker q12 — 256 partitions, the join launched
// through the invocation tree — fault-free and under the checked-in storm,
// which crashes workers on invoke and mid-run: every invocation is tiled by
// its phases, they carry its cost, and a replay exports the same trace.
func TestPhasesTileQ12(t *testing.T) {
	storm, err := os.ReadFile("../../cmd/lambada/testdata/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan(storm)
	if err != nil {
		t.Fatal(err)
	}
	c := planCase{Q: q12Exact(), Layout: fleetLayout, Partitions: 256, BroadcastRowLimit: -1}
	t.Run("clean", func(t *testing.T) { runCase(t, c, phased{}, wantWorkers(260)) })
	c.Speculate, c.Faults = true, plan
	t.Run("storm", func(t *testing.T) {
		if shapes := runCase(t, c, phased{}); !slices.Contains(shapes, "faults relaunched or speculated") {
			t.Errorf("the storm recovered from no fault: shapes %v", shapes)
		}
	})
}

// TestProfileFitsAScreen: the 260-worker q12 as `cmd/lambada -mode des
// -profile -query q12 -partitions 256 -broadcast-limit -1 -sf 0.002 -files
// 4` runs it reports in at most 80 lines — one row per stage, the
// critical path in at most 60 — and its stage rows read what ROADMAP's stage
// table reads. Verbose adds the critical path span by span.
func TestProfileFitsAScreen(t *testing.T) {
	var rep *Report
	_, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewChaos(k, 42, faults.Plan{})
		dep.EnableTracing(obs.New())
		return dep
	}, DefaultConfig(), fleetLayout, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
		_, rep, err = sess.RunSQLStaged(p, tpch.Q12SQL, tables, shuffled(256))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, rep, RenderOptions{Profile: true})
	report := buf.String()
	if n := strings.Count(report, "\n"); n > 80 {
		t.Errorf("the report is %d lines, want at most 80:\n%s", n, report)
	}
	_, path, _ := strings.Cut(report, "critical path (stage, phase):\n")
	if n := strings.Count(path, "\n"); n == 0 || n > 60 {
		t.Errorf("the critical path prints in %d lines, want 1 to 60", n)
	}
	// stage, launched, first, sealed, lag. A lineitem scan worker reads its
	// row group in one request window where it took two — the payload rides
	// the filter's — so stage 1 reports 18 ms sooner and seals 26 ms sooner
	// (+453 → +435, +495 → +469); the join (stage 0) launches 1 ms sooner
	// (+470 → +469) and its first and last winners follow (+639 → +612,
	// +1.346s → +1.343s). The lags are as measured (27 → 24, 20 → 19).
	// Then a scan worker stopped opening its file — the footer rides its
	// payload — so stage 1 reports 33 ms sooner and seals 23 ms sooner
	// (+435 → +402, +469 → +446), the join launches on its first report
	// (+469 → +427) and its winners follow (+612 → +584, +1.343s → +1.299s).
	// The lags are as measured (24 → 24, 19 → 20).
	// Then the epoch fence became one conditional write: a fresh query ID
	// takes epoch 1 without reading the item first, so the plan phase ends a
	// DynamoDB read sooner and every stage follows, about 5 ms earlier
	// (stage 1 +64 → +59, +402 → +397, +446 → +442; the join +427 → +421,
	// +584 → +580, +1.299s → +1.294s). The lags are as measured (24 → 25,
	// 20 → 19).
	// Then a span came to carry up to s3fs.DefaultCoalesceGap dead bytes in
	// all, whatever share of it they are: the two scan stages bill 6 GETs
	// fewer (1 040 → 1 034), and stage 1 reports 13 ms sooner and seals 25 ms
	// sooner (+397 → +384, +442 → +417). Fewer requests re-draw every later
	// latency: stage 2 first reports 14 ms later (+409 → +423), so the join,
	// launched once both scan stages have reported, launches 18 ms later
	// (+421 → +439), first reports 19 ms sooner (+580 → +561) and seals 23 ms
	// later (+1.294s → +1.317s). The lags are as measured (25 → 32, 19 → 12).
	// Then a consumer stage got one ready marker, written when its last input
	// seals: stage 1, the first scan stage to seal, writes none, so it seals
	// a DynamoDB Put sooner (+417 → +409). Each join worker reads one item
	// where it read two; with fewer DynamoDB draws every later latency
	// re-draws: the join launches 4 ms sooner (+439 → +435), its first winner
	// comes out of a 208 ms cold start and reports later (+561 → +696), and
	// it seals 6 ms sooner (+1.317s → +1.311s). The lags are as measured
	// (32 → 24, 12 → 25).
	for _, want := range [][5]string{{"1", "+59ms", "+384ms", "+409ms", "24ms"}, {"0", "+435ms", "+696ms", "+1.311s", "25ms"}} {
		var row []string
		for _, line := range strings.Split(report, "\n") {
			if f := strings.Fields(line); len(f) > 6 && f[0] == want[0] {
				row = []string{f[0], f[2], f[3], f[5], f[6]}
			}
		}
		if !slices.Equal(row, want[:]) {
			t.Errorf("stage %s: (stage, launched, first, sealed, lag) = %v, want %v", want[0], row, want)
		}
	}
	buf.Reset()
	WriteReport(&buf, rep, RenderOptions{Profile: true, Verbose: true})
	if !strings.Contains(buf.String(), "critical path (spans):\n") {
		t.Error("the verbose profile prints no per-span critical path")
	}
}
