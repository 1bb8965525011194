package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyRunsEmitTheCatalogue runs all five workloads, untraced and
// traced, at smoke-test sizes and checks each emits exactly the metrics its
// catalogue names — every end-to-end metric finite and non-zero, every
// per-layer metric finite — with every query correct.
func TestTinyRunsEmitTheCatalogue(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := w.run(options{seed: 33, seconds: 0.1, traced: traced, tiny: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d queries failed: %v", w.name, traced, res.failed, res.attempted, res.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, ok := find(res.diag, "driver.round_ms_p50"); ok == traced {
				t.Errorf("%s traced=%v: round times must be a diagnostic of the untraced run only", w.name, traced)
			}
			got := res.json().Metrics
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue has %d", w.name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, d.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue guards against drift between the
// driver's contract file and the code that emits the metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract allows exactly 6", len(keys))
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if seen[d.Name] {
			t.Errorf("%s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75 and
// 8.25, the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one sample: spread %v, want 0", got)
	}
}

// gated is the end-to-end metric the comparison tests write records of.
const gated = "alloc_mb_per_round"

func writeRecords(t *testing.T, nproc int, values ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, v := range values {
		rec := runRecord{Workload: "scan_local", Env: environment{NProc: nproc, GOMAXPROCS: 2}}
		rec.Result.Metrics = map[string]metricJSON{gated: {Value: v, Unit: "MB"}}
		rec.Diagnostics = map[string]metricJSON{"driver.round_ms_p50": {Value: 2 * v, Unit: "ms"}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestCompareVerdicts: a steady pair within the bound is ok, a steady pair
// beyond it regressed, a noisy side unresolved, diagnostics are listed
// without a verdict of their own, and files from different CPU counts are
// refused.
func TestCompareVerdicts(t *testing.T) {
	d, _ := find(endToEnd, gated)
	steady := func(centre float64) string {
		return writeRecords(t, 2, centre, centre*1.001, centre, centre*0.999, centre)
	}
	base := steady(100)
	cases := []struct {
		other   string
		verdict string
		fails   bool
	}{
		{steady(100 * (1 + d.Bound/2)), "ok", false},
		{steady(100 * (1 + 2*d.Bound)), "regressed", true},
		{writeRecords(t, 2, 80, 140, 100, 60, 120), "unresolved", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, base, c.other)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v", c.verdict, err)
		}
		for _, want := range []string{c.verdict, "diagnostic"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("want %q in:\n%s", want, out.String())
			}
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, base, writeRecords(t, 4, 100, 100)); err == nil || !strings.Contains(err.Error(), "different CPU counts") {
		t.Errorf("different nproc: err = %v", err)
	}
}
