package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const mb = 1e6

// window measures the host cost of a stretch of work: wall time, process
// CPU (user+sys, all threads — what separates "more parallel" from "less
// work") and bytes allocated.
type window struct {
	t0    time.Time
	cpu0  time.Duration
	heap0 uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func openWindow() window {
	return window{t0: time.Now(), cpu0: processCPU(), heap0: totalAlloc()}
}

type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (w window) close() cost {
	return cost{wall: time.Since(w.t0), cpu: processCPU() - w.cpu0, alloc: totalAlloc() - w.heap0}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// liveHeapMB is the heap still reachable after a forced collection: the
// inputs plus whatever the resident session, its caches and the simulated
// services retain. Unlike the peak resident set it does not depend on when
// the collector happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mb
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / mb
		}
	}
	return 0
}

// environment is recorded with every run so -compare can refuse to set
// numbers from different machines side by side.
type environment struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	e := environment{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is fine there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// ---- host span recorder ----

// span is one node of the host trace: a call the benchmark made into the
// program, timed from outside. Spans of one round share its id.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Round   int     `json:"round"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// SelfUs is the span's duration minus the part its children cover.
	SelfUs float64 `json:"self_us"`
}

// recorder keeps spans in memory and writes them when the run ends. A nil
// recorder records nothing, which is how the untraced run pays nothing.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, round int) int {
	if r == nil {
		return 0
	}
	now := us(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Round: round, StartUs: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := us(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].EndUs = now
	r.mu.Unlock()
}

// write stores the spans, self times filled in, as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Children are appended in start order, so one pass per parent merges
	// overlapping child intervals (concurrent clients) into their union.
	covered := make([]float64, len(r.spans))
	reach := make([]float64, len(r.spans)) // end of the union so far, per parent
	for _, s := range r.spans {
		if s.Parent == 0 {
			continue
		}
		p := s.Parent - 1
		from := max(s.StartUs, reach[p])
		if s.EndUs > from {
			covered[p] += s.EndUs - from
			reach[p] = s.EndUs
		}
	}
	for i := range r.spans {
		r.spans[i].SelfUs = r.spans[i].EndUs - r.spans[i].StartUs - covered[i]
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
