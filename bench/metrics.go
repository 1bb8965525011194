package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Clocks a metric can be read on. Every number the benchmark prints names
// one: host is wall/CPU/memory of this process, virtual is the DES clock
// and the pricing meter (bit-exact for a seed), count is an exact counter.
const (
	host    = "host"
	virtual = "virtual"
	count   = "count"
)

// metricDef is one catalogue entry. The catalogue is the single source of
// the names; BENCHMARK.json repeats it for the driver and bench_test.go
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"; end-to-end and per-layer alike
	Bound  float64 // end-to-end only: worsening that counts as a regression
	Clock  string
}

// endToEnd lists what a user of the system sees, on both clocks. Every
// workload emits every one of them (the host ones from the workload's own
// deployment, the virtual ones from its DES script). No wall-clock or CPU
// time is here apart from setup_s, which the contract requires: this
// sandbox's speed drifts by tens of percent over minutes, so times are
// diagnostics (driver.round_ms_p50 and friends) and the gated host metrics
// are the ones that repeat: bytes allocated and bytes retained.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, host},
	{"alloc_mb_per_round", "MB", "lower", 0.05, host},
	{"live_heap_mb", "MB", "lower", 0.03, host},
	{"vlatency_cold_ms", "vms", "lower", 0.12, virtual},
	{"vlatency_warm_ms", "vms", "lower", 0.08, virtual},
	{"billed_usd_per_query", "USD", "lower", 0.06, virtual},
	{"billed_requests_per_query", "count", "lower", 0.06, virtual},
	{"billed_lambda_gb_s_per_query", "GB-s", "lower", 0.10, virtual},
}

// perLayer lists the single-layer metrics of the traced run, grouped by the
// module that owns them. A workload that does not exercise a layer reports
// 0 for that layer's metrics.
var perLayer = []metricDef{
	{"sqlfe.parse_us", "us", "lower", 0, host},

	{"stageplan.decompose_us", "us", "lower", 0, host},
	{"stageplan.fingerprint_us", "us", "lower", 0, host},
	{"stageplan.stages", "count", "lower", 0, count},
	{"stageplan.boundaries_2l", "count", "lower", 0, count},

	{"lpq.open_us", "us", "lower", 0, host},
	{"lpq.decode_mb_s", "MB/s", "higher", 0, host},
	{"lpq.encode_mb_s", "MB/s", "higher", 0, host},
	{"lpq.decode_alloc_mb", "MB", "lower", 0, count},
	{"lpq.encode_alloc_mb", "MB", "lower", 0, count},

	{"scan.q1_mb_s", "MB/s", "higher", 0, host},
	{"scan.q6_mb_s", "MB/s", "higher", 0, host},
	{"scan.alloc_mb", "MB", "lower", 0, count},
	{"scan.billed_gets", "count", "lower", 0, count},
	{"scan.billed_bytes", "B", "lower", 0, count},
	{"scan.pages_pruned_share", "ratio", "higher", 0, count},
	{"scan.pages_filtered_share", "ratio", "higher", 0, count},

	{"engine.q1_rows_s", "rows/s", "higher", 0, host},
	{"engine.q6_rows_s", "rows/s", "higher", 0, host},
	{"engine.join_rows_s", "rows/s", "higher", 0, host},
	{"engine.agg_speedup_2p", "x", "higher", 0, host},
	{"engine.join_speedup_2p", "x", "higher", 0, host},
	{"engine.alloc_mb", "MB", "lower", 0, count},

	{"exchange.publish_mb_s", "MB/s", "higher", 0, host},
	{"exchange.collect_mb_s", "MB/s", "higher", 0, host},
	{"exchange.publish_alloc_mb", "MB", "lower", 0, count},
	{"exchange.collect_alloc_mb", "MB", "lower", 0, count},
	{"exchange.shuffle_bytes", "B", "lower", 0, count},
	{"exchange.requests", "count", "lower", 0, count},
	{"exchange.model_delta", "count", "lower", 0, count},

	{"invoke.launch_vms", "vms", "lower", 0, virtual},
	{"invoke.conc4_vms", "vms", "lower", 0, virtual},
	{"invoke.admission_peak", "count", "lower", 0, count},
	{"invoke.admission_blocked", "count", "lower", 0, count},

	{"driver.q1_ms_p50", "ms", "lower", 0, host},
	{"driver.q6_ms_p50", "ms", "lower", 0, host},
	{"driver.q12_ms_p50", "ms", "lower", 0, host},
	{"driver.q1staged_ms_p50", "ms", "lower", 0, host},
	{"driver.round_ms_p50", "ms", "lower", 0, host},
	{"driver.round_ms_p80", "ms", "lower", 0, host},
	{"driver.rounds_per_s", "1/s", "higher", 0, host},
	{"driver.cpu_ms_per_round", "ms", "lower", 0, host},
	{"driver.peak_rss_mb", "MB", "lower", 0, host},
	{"driver.overhead_cpu_ms", "ms", "lower", 0, host},
	{"driver.critpath_worker_vms", "vms", "lower", 0, virtual},
	{"driver.critpath_driver_vms", "vms", "lower", 0, virtual},
	{"driver.stage_wall_vms_max", "vms", "lower", 0, virtual},
	{"driver.worker_vms_p50", "vms", "lower", 0, virtual},
	{"driver.worker_vms_max", "vms", "lower", 0, virtual},
	{"driver.speculated", "count", "lower", 0, count},
	{"driver.failure_seals", "count", "lower", 0, count},
	{"driver.cache_hit_share", "ratio", "higher", 0, count},
	{"driver.cache_hit_us", "us", "lower", 0, host},

	{"simclock.ns_per_event", "ns", "lower", 0, host},
	{"simclock.alloc_b_per_event", "B", "lower", 0, count},
	{"simclock.events_per_query", "count", "lower", 0, count},
	{"simclock.wakeups_per_query", "count", "lower", 0, count},
	{"simclock.query_ns_per_event", "ns", "lower", 0, host},

	{"awssim.s3_get", "count", "lower", 0, count},
	{"awssim.s3_put", "count", "lower", 0, count},
	{"awssim.s3_list", "count", "lower", 0, count},
	{"awssim.s3_read_mb", "MB", "lower", 0, count},
	{"awssim.sqs_requests", "count", "lower", 0, count},
	{"awssim.dynamo_reads", "count", "lower", 0, count},
	{"awssim.dynamo_writes", "count", "lower", 0, count},
	{"awssim.lambda_invokes", "count", "lower", 0, count},
	{"awssim.cold_starts", "count", "lower", 0, count},
	{"awssim.usd_s3", "USD", "lower", 0, virtual},
	{"awssim.usd_lambda", "USD", "lower", 0, virtual},
	{"awssim.usd_sqs_dynamo", "USD", "lower", 0, virtual},

	{"resilience.retries_per_query", "count", "lower", 0, count},

	{"obs.spans_per_query", "count", "lower", 0, count},
	{"obs.trace_overhead_pct", "%", "lower", 0, host},
	{"obs.vlatency_delta_ms", "vms", "lower", 0, virtual},

	{"service.http_overhead_us", "us", "lower", 0, host},
	{"service.response_bytes", "B", "lower", 0, count},
}

// result collects one run's metrics and its correctness tally.
type result struct {
	traced bool
	defs   []metricDef // the run's catalogue: endToEnd, or perLayer when traced
	values map[string]float64
	// diag holds the per-layer metrics an untraced run measures anyway
	// (round times, CPU, peak RSS): printed and recorded for -compare, kept
	// out of the driver's JSON.
	diag      []metricDef
	attempted int // queries issued in measured and scripted phases
	failed    int // errors + result mismatches + deadlocked kernels
	notes     []string
}

func newResult(traced bool) *result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &result{traced: traced, defs: defs, values: map[string]float64{}}
}

func find(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// set records a metric. Shared code reports both kinds without asking which
// run it is in: an end-to-end name is dropped by the traced run, a
// per-layer name becomes a diagnostic of the untraced one. Setting one
// twice is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	if _, known := find(r.defs, name); !known {
		d, layer := find(perLayer, name)
		if !layer {
			return
		}
		r.diag = append(r.diag, d)
	}
	if _, dup := r.values[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	r.values[name] = v
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish checks the run emitted what its catalogue promises: every
// end-to-end metric, finite and non-zero; per-layer metrics default to 0
// for layers the workload does not exercise.
func (r *result) finish() error {
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			r.values[d.Name] = 0
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		if !r.traced && v == 0 {
			return fmt.Errorf("end-to-end metric %s is zero", d.Name)
		}
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output, the shape the driver
// reads.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *result) json() resultJSON {
	return resultJSON{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics(r.defs)}
}

func (r *result) metrics(defs []metricDef) map[string]metricJSON {
	out := map[string]metricJSON{}
	for _, d := range defs {
		out[d.Name] = metricJSON{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// ---- small statistics ----

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
