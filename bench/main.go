// Command bench is the repository's benchmark: five named workloads, each
// measured on two clocks — host (this process's wall, CPU and memory) and
// virtual (the DES clock and the pricing meter) — with every result checked
// against a single-node reference. See README.md for the metric glossary.
//
//	bash bench/run.sh --workload scan_local --seed 33 --seconds 6 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/obs"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	tiny    bool
	outDir  string // where the traced run writes its trace files: bench/out from the repository root
}

// The fixed sizes of a run. minRounds is a floor, not a target: the timed
// window runs for --seconds and at least that many rounds.
const (
	warmupRounds = 5
	minRounds    = 20
	tracedRounds = 20
	// Set-up repeats at least three times, and on until three seconds of it have
	// been timed, so a 30 ms DES set-up reports as steady a median as a 3 s
	// local one.
	minSetupRepeats = 3
	maxSetupRepeats = 25
	setupSeconds    = 3.0
)

func main() {
	runtime.GOMAXPROCS(2) // the ground rule: every run on two cores
	var (
		name    = flag.String("workload", "all", "workload name, or all (each in its own process)")
		seed    = flag.Int64("seed", 33, "drives the generated tables, the simulated deployment and the request mix")
		seconds = flag.Float64("seconds", 6, "how long the timed window of the host half runs")
		trace   = flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
		scale   = flag.String("scale", "full", "full, or tiny (smoke-test sizes; numbers mean nothing)")
		record  = flag.String("record", "", "append this run's metrics to the file as one JSON line, for -compare")
		compare = flag.Bool("compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace != 0, tiny: *scale == "tiny", outDir: filepath.Join("bench", "out")}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	env := readEnvironment()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d scale=%s\n", w.name, opts.seed, opts.seconds, *trace, *scale)
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d cpu=%q commit=%s\n", env.Go, env.NProc, env.GOMAXPROCS, env.CPU, env.Commit)
	res, err := w.run(opts)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if *record != "" {
		rec := runRecord{Workload: w.name, Seed: opts.seed, Traced: opts.traced, Env: env, Result: res.json(), Diagnostics: res.metrics(res.diag)}
		if err := appendRecord(*record, rec); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable result.
	fmt.Println(mustJSON(res.json()))
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll re-executes this binary once per workload, so the memory numbers
// are each workload's own.
func runAll(args []string) int {
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append(append([]string{}, args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

func printResult(r *result) {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("%-32s %18s  %-7s %s\n", "metric", "value", "unit", "clock")
	for _, d := range r.defs {
		fmt.Printf("%-32s %18.6f  %-7s %s\n", d.Name, r.values[d.Name], d.Unit, d.Clock)
	}
	for _, d := range r.diag {
		fmt.Printf("%-32s %18.6f  %-7s %s (diagnostic, not gated)\n", d.Name, r.values[d.Name], d.Unit, d.Clock)
	}
	fmt.Printf("# attempted=%d failed=%d failed_share=%.4f\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
}

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	Result   resultJSON  `json:"result"`
	// Diagnostics are the ungated numbers of an untraced run (round times,
	// CPU, peak RSS), kept so two commits' times can still be set side by side.
	Diagnostics map[string]metricJSON `json:"diagnostics,omitempty"`
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(mustJSON(rec) + "\n"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- one run ----

// sizes are the fixed counts of one run.
type sizes struct {
	setupOnce      bool // no set-up repeats
	warmup         int  // host half: warm-up rounds per client
	fixed          int  // host half: > 0 times exactly this many rounds per client, not --seconds
	counted        int  // host half: rounds of the counted block
	desWarm        int  // DES script: warm rounds per deployment
	desDeployments int
}

func (w *workload) sizes(o options) sizes {
	switch {
	case o.tiny:
		return sizes{setupOnce: true, warmup: 1, fixed: 2, counted: 2, desWarm: 1, desDeployments: 1}
	case o.traced:
		// One deployment: the traced run feeds no end-to-end metric, and its
		// traced twin is compared with exactly that one.
		return sizes{setupOnce: true, warmup: warmupRounds, fixed: tracedRounds, counted: w.counted, desWarm: w.desWarm, desDeployments: 1}
	}
	return sizes{warmup: warmupRounds, counted: w.counted, desWarm: w.desWarm, desDeployments: w.desDeployments}
}

// absorb folds a phase's tally into the run's correctness count.
func (r *result) absorb(phase string, t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.firstErr != nil {
		r.notef("FAILED in %s: %v", phase, t.firstErr)
	}
}

// run executes the workload once: set-up (repeated, for a steady setup_s),
// the host half, the DES script, and in a traced run the per-layer phases.
func (w *workload) run(o options) (*result, error) {
	res := newResult(o.traced)
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	root := rec.start("run", 0, 0)
	if o.tiny {
		w = w.shrunk()
	}
	data := w.data
	if w.hostOnDES {
		data = w.des
	}

	// Set-up: generate + install + upload of the deployment the host half
	// runs on, timed on the host clock. Repeated in the untraced run so
	// setup_s is a median; the last deployment is the one measured.
	var setups []float64
	var total float64
	var t tables
	var d *deployment
	sz := w.sizes(o)
	for i := 0; i < maxSetupRepeats && (i < minSetupRepeats || total < setupSeconds) && (i == 0 || !sz.setupOnce); i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		gs := rec.start("setup.generate", root, 0)
		t = generate(data, o.seed)
		rec.end(gs)
		up := rec.start("setup.upload", root, 0)
		var err error
		if w.hostOnDES {
			d, err = w.setupDES(t, depSeed(o.seed, 0), nil, 0)
		} else {
			d, err = w.setupLocal(data, t)
		}
		rec.end(up)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[i]
	}
	defer d.close()
	res.set("setup_s", median(setups))

	orc := newOracle(t)
	if err := orc.prime(w.texts()); err != nil {
		return nil, err
	}
	// The DES script's tables: the workload's own on a DES workload, the
	// small history tables otherwise.
	desT, desOrc, desD := t, orc, d
	if !w.hostOnDES {
		desT = generate(w.des, o.seed)
		desOrc = newOracle(desT)
		if err := desOrc.prime(w.texts()); err != nil {
			return nil, err
		}
		var err error
		if desD, err = w.setupDES(desT, depSeed(o.seed, 0), nil, 0); err != nil {
			return nil, fmt.Errorf("DES set-up: %w", err)
		}
	}

	// Host half.
	var host *tally
	var hostCost cost
	var allocPerRound float64
	if !w.hostOnDES {
		host, hostCost, allocPerRound = w.hostRounds(d, orc, o.seed, sz, o.seconds, rec, root)
		res.absorb("host rounds", host)
	}

	// Virtual half: the scripted rounds on the DES deployments.
	sc, err := w.runScript(desD, desT, desOrc, o.seed, sz.desWarm, sz.desDeployments, rec, root)
	if sc != nil {
		res.absorb("DES script", sc.tl)
	}
	if err != nil {
		return res, err
	}
	if w.hostOnDES {
		host, hostCost = sc.tl, sc.host
		allocPerRound = float64(hostCost.alloc) / mb / float64(len(host.roundMs))
	}
	if len(host.roundMs) == 0 {
		return res, fmt.Errorf("no round completed: %v", host.firstErr)
	}

	rounds := float64(len(host.roundMs))
	res.set("alloc_mb_per_round", allocPerRound)
	res.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(desD)
	res.set("vlatency_cold_ms", median(sc.coldMs()))
	res.set("vlatency_warm_ms", median(sc.warmMs()))
	res.set("billed_usd_per_query", sc.bill.dollars()/sc.queries())
	res.set("billed_requests_per_query", float64(sc.bill.requests())/sc.queries())
	res.set("billed_lambda_gb_s_per_query", float64(sc.bill.mibNs)/1024/1e9/sc.queries())
	res.set("driver.round_ms_p50", median(host.roundMs))
	res.set("driver.round_ms_p80", percentile(host.roundMs, 0.8))
	res.set("driver.rounds_per_s", rounds/hostCost.wall.Seconds())
	res.set("driver.cpu_ms_per_round", ms(hostCost.cpu)/rounds)
	res.set("driver.peak_rss_mb", peakRSSMB())
	res.notef("host half: %d rounds timed, %d queries; DES script: %d deployments x %d rounds, %d queries",
		len(host.roundMs), host.attempted, len(sc.vRoundMs), sz.desWarm+1, len(sc.reports))
	if w.name == "staged_des" {
		res.notef("continuity with BENCH_PR10.json Fleet64 (3662 vms / 1196 S3 requests / $0.002798 at seed 33): cold query %.0f vms / %d S3 requests / $%.6f",
			sc.vRoundMs[0][0], sc.cold.s3Requests(), sc.cold.dollars())
	}

	if o.traced {
		if err := w.traced(o, res, rec, root, measured{d, t, desT, desOrc, host, hostCost, sc}); err != nil {
			return res, err
		}
	}
	rec.end(root)
	if o.traced {
		if err := rec.write(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
			return res, err
		}
	}
	return res, res.finish()
}

// measured is what both halves of a run leave behind for the traced phases.
type measured struct {
	d        *deployment // the host half's deployment
	t, desT  tables      // the host half's tables, the script's
	desOrc   *oracle     // references over desT
	host     *tally      // the timed rounds
	hostCost cost        // their host cost
	sc       *script     // the untraced DES script
}

// traced runs the phases only the per-layer metrics need: the DES script
// again under the program's obs tracer, the admission phase, and the layer
// replays. None of it feeds an end-to-end metric.
func (w *workload) traced(o options, res *result, rec *recorder, root int, m measured) error {
	d, t, desT, desOrc, host, hostCost, sc := m.d, m.t, m.desT, m.desOrc, m.host, m.hostCost, m.sc
	warm := len(sc.vRoundMs[0]) - 1
	td, err := w.setupDES(desT, depSeed(o.seed, 0), obs.New(), 0)
	if err != nil {
		return fmt.Errorf("traced DES set-up: %w", err)
	}
	id := rec.start("script.traced", root, 0)
	ts, err := w.runScript(td, desT, desOrc, o.seed, warm, 1, rec, id)
	rec.end(id)
	if ts != nil {
		res.absorb("traced DES script", ts.tl)
	}
	if err != nil {
		return fmt.Errorf("traced %w", err)
	}
	if len(ts.reports) != len(sc.reports) {
		return fmt.Errorf("traced DES script completed %d queries, untraced %d", len(ts.reports), len(sc.reports))
	}
	id = rec.start("obs.analyze", root, 0)
	w.virtualLayers(res, sc, ts)
	rec.end(id)
	id = rec.start("obs.export", root, 0)
	err = writeVirtualTrace(filepath.Join(o.outDir, w.name+".vtrace.json"), ts)
	rec.end(id)
	if err != nil {
		return err
	}

	if w.conc > 0 {
		id = rec.start("script.concurrent", root, 0)
		c, err := w.runConcurrent(desT, desOrc, o.seed)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("admission phase: %w", err)
		}
		res.absorb("admission phase", c.tl)
		res.set("invoke.conc4_vms", c.meanVMs)
		res.set("invoke.admission_peak", float64(c.peak))
		res.set("invoke.admission_blocked", float64(c.blocked))
	}

	for kind, name := range map[string]string{"q1": "driver.q1_ms_p50", "q6": "driver.q6_ms_p50", "q12": "driver.q12_ms_p50", "q1staged": "driver.q1staged_ms_p50"} {
		res.set(name, median(host.kindMs[kind]))
	}
	hits, misses := d.sess.CacheStats()
	if hits+misses > 0 {
		res.set("driver.cache_hit_share", float64(hits)/float64(hits+misses))
	}
	if w.http {
		if err := w.serviceLayers(res, rec, root, d); err != nil {
			return err
		}
	}

	// Replays run on a local deployment holding the workload's files; a
	// DES workload gets one loaded for the purpose.
	rd := d
	if w.hostOnDES {
		if rd, err = w.setupLocal(w.des, t); err != nil {
			return err
		}
		defer rd.close()
	}
	rp := &replayer{w: w, d: rd, t: t, res: res, rec: rec, root: root, repeats: 16}
	if o.tiny {
		rp.repeats = 1
	}
	direct, boundary, err := rp.run()
	if err != nil {
		return err
	}
	// What the distributed machinery costs beyond the single-node work:
	// the round's CPU minus the same queries answered straight from the
	// files, minus one boundary per staged q12.
	overhead := ms(hostCost.cpu) / float64(len(host.roundMs))
	for _, req := range w.round(o.seed, 0, 0) {
		overhead -= ms(direct[req.kind])
		if req.kind == "q12" {
			overhead -= ms(boundary)
		}
	}
	res.set("driver.overhead_cpu_ms", overhead)
	return nil
}

// virtualLayers reads the per-layer numbers that live on the virtual clock
// or in exact counters, from the untraced script (sc) and the traced one
// (ts). Per-query figures divide by the script's query count.
func (w *workload) virtualLayers(res *result, sc, ts *script) {
	q := sc.queries()
	var launch, workers []float64
	var speculated, failureSeals, retries, twoLevel int
	var stageWall time.Duration
	for _, rep := range sc.reports {
		launch = append(launch, ms(rep.Invocation))
		speculated += rep.Speculated
		failureSeals += rep.FailureSeals
		retries += int(rep.DriverRetries + rep.WorkerRetries)
		for _, p := range rep.WorkerProcessing {
			workers = append(workers, ms(p))
		}
	}
	last := sc.reports[len(sc.reports)-1]
	for _, st := range last.StageStats {
		stageWall = max(stageWall, st.Sealed-st.Launched)
		if !st.Regroup && strings.HasPrefix(st.Variant, "2l") {
			twoLevel++
		}
	}
	res.set("stageplan.boundaries_2l", float64(twoLevel))
	res.set("invoke.launch_vms", mean(launch))
	res.set("driver.stage_wall_vms_max", ms(stageWall))
	res.set("driver.worker_vms_p50", median(workers))
	res.set("driver.worker_vms_max", percentile(workers, 1))
	res.set("driver.speculated", float64(speculated))
	res.set("driver.failure_seals", float64(failureSeals))
	res.set("resilience.retries_per_query", float64(retries)/q)

	res.set("simclock.events_per_query", float64(sc.bill.steps)/q)
	res.set("simclock.wakeups_per_query", float64(sc.bill.wakeups)/q)
	res.set("simclock.query_ns_per_event", float64(sc.host.wall)/float64(max(sc.bill.steps, 1)))

	c := sc.bill.counts
	res.set("awssim.s3_get", float64(c[pricing.LabelS3Read])/q)
	res.set("awssim.s3_put", float64(c[pricing.LabelS3Write])/q)
	res.set("awssim.s3_list", float64(c[pricing.LabelS3List])/q)
	res.set("awssim.s3_read_mb", float64(sc.bill.s3Bytes)/mb/q)
	res.set("awssim.sqs_requests", float64(c[pricing.LabelSQS])/q)
	res.set("awssim.dynamo_reads", float64(c[pricing.LabelDynamoRead])/q)
	res.set("awssim.dynamo_writes", float64(c[pricing.LabelDynamoWrite])/q)
	res.set("awssim.lambda_invokes", float64(sc.bill.invokes)/q)
	res.set("awssim.cold_starts", float64(sc.bill.cold)/q)
	res.set("awssim.usd_s3", sc.bill.dollars("s3.")/q)
	res.set("awssim.usd_lambda", sc.bill.dollars("lambda.")/q)
	res.set("awssim.usd_sqs_dynamo", sc.bill.dollars("sqs.", "dynamo.")/q)

	// The traced script: the obs span tree of the last warm query.
	spans := ts.tracer.Spans()
	res.set("obs.spans_per_query", float64(len(spans))/q)
	res.set("obs.trace_overhead_pct", 100*(median(ts.tl.roundMs[1:])/median(sc.tl.roundMs[1:])-1))
	res.set("obs.vlatency_delta_ms", median(ts.warmMs())-median(sc.warmMs()))
	tlast := ts.reports[len(ts.reports)-1]
	spans = subtree(spans, tlast.Span)
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
	var worker time.Duration
	for _, seg := range obs.CriticalPath(spans, 1) {
		if underInvoke(seg.Span) {
			worker += seg.Duration()
		}
	}
	res.set("driver.critpath_worker_vms", ms(worker))
	res.set("driver.critpath_driver_vms", ms(tlast.Duration-worker))
}

// subtree returns root's span subtree renumbered from 1 (root first), so
// obs.CriticalPath — whose cost grows with segments x spans — sweeps one
// query's spans, not the whole script's. Empty when root is 0 (a cache hit
// has no span).
func subtree(spans []obs.Span, root obs.SpanID) []obs.Span {
	if root == 0 {
		return nil
	}
	renumber := map[obs.SpanID]obs.SpanID{}
	var out []obs.Span
	for _, s := range spans { // parents precede children in ID order
		if s.ID != root && renumber[s.Parent] == 0 {
			continue
		}
		s.Parent = renumber[s.Parent]
		renumber[s.ID] = obs.SpanID(len(out) + 1)
		s.ID = renumber[s.ID]
		out = append(out, s)
	}
	return out
}

func writeVirtualTrace(path string, ts *script) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.ExportChromeTrace(f, ts.tracer.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a -record file.
func readRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
