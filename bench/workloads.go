package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/service"
	"lambada/internal/simclock"
)

// workload is one named set of inputs. Every workload has a host half
// (rounds on its own deployment: a timed window, then a counted block) and
// a virtual half (the same rounds scripted on fresh DES deployments: one
// cold round, 2 s of virtual idle, then warm rounds). On the two DES
// workloads the halves coincide: the scripted rounds are the host rounds,
// so their host numbers measure the simulator.
type workload struct {
	name string
	why  string

	data dataSpec // host-half tables
	des  dataSpec // DES-script tables (hostOnDES: the only tables; -scale tiny: the host half's too)

	texts func() []string
	round roundFunc

	single    bool  // single-scope Session.RunSQL over lineitem
	parts     int   // StageConfig.Partitions (0 autotunes)
	broadcast int64 // StageConfig.BroadcastRowLimit
	cache     int   // Config.ResultCacheEntries
	inFlight  int   // Config.MaxInFlight

	hostOnDES bool // the DES script's rounds are the host rounds
	http      bool // requests go through the HTTP service
	clients   int  // closed-loop clients of the timed window
	counted   int  // rounds of the counted block
	leadIn    int  // uncounted rounds ahead of it

	desWarm        int // warm rounds of the DES script, per deployment
	desDeployments int // fresh deployments the script is played on
	conc           int // concurrent streams of the traced run's admission phase; 0 skips it
}

var paged = lpq.WriterOptions{RowGroupRows: 8192, PageRows: 2048, Compression: lpq.Gzip}
var small = lpq.WriterOptions{RowGroupRows: 2000}

// desTables is the input of BenchmarkStagedQ12Fleet, so the DES workloads
// continue that history.
var desTables = dataSpec{sf: 0.002, liFiles: 4, ordFiles: 2, opts: small}

var workloads = []*workload{
	{
		name:  "scan_local",
		why:   "scan-heavy Q1/Q6 on goroutine workers: lpq decode, scan pruning and engine aggregation do the work; exchange, stageplan and simclock do none",
		data:  dataSpec{sf: 0.1, liFiles: 16, opts: paged},
		des:   dataSpec{sf: 0.002, liFiles: 4, opts: paged},
		texts: scanTexts, round: scanRound, single: true,
		clients: 1, counted: 10, desWarm: 3, desDeployments: 8, conc: 4,
	},
	{
		name:  "shuffle_local",
		why:   "staged q12 + staged Q1 on goroutine workers: the write side - exchange publish/collect, lpq writer, hash join, stage scheduler; scan is a small share",
		data:  dataSpec{sf: 0.1, liFiles: 16, ordFiles: 8, opts: paged},
		des:   dataSpec{sf: 0.002, liFiles: 4, ordFiles: 2, opts: paged},
		texts: shuffleTexts, round: shuffleRound, parts: 4, broadcast: -1,
		clients: 1, counted: 10, desWarm: 3, desDeployments: 8, conc: 4,
	},
	{
		name:  "staged_des",
		why:   "64-worker staged q12 under DES: modeled latency and dollars where cold start, pacing and barriers set the answer; compute is free on the virtual clock",
		des:   desTables,
		texts: shuffleTexts, round: q12Round, parts: 30, broadcast: -1,
		hostOnDES: true, desWarm: 5, desDeployments: 2, conc: 4,
	},
	{
		name:  "fleet_des",
		why:   "560-worker staged q12 under DES: multi-level exchange, invocation fan-out and the simclock waiter scan; requests, not bytes, set the bill",
		des:   desTables,
		texts: shuffleTexts, round: q12Round, parts: 256, broadcast: -1,
		hostOnDES: true, desWarm: 1, desDeployments: 1,
	},
	{
		name:  "serve_mixed",
		why:   "two closed-loop HTTP clients on the resident service: JSON/HTTP, sqlfe, plan fingerprints, a result cache with one working set that fits and one that does not",
		data:  dataSpec{sf: 0.02, liFiles: 8, ordFiles: 8, opts: paged},
		des:   dataSpec{sf: 0.002, liFiles: 4, ordFiles: 2, opts: paged},
		texts: serveTexts, round: serveRound, cache: 32, inFlight: 64,
		http: true, clients: 2, counted: 56, leadIn: 8, desWarm: 7, desDeployments: 8, conc: 4,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shrunk is the workload at -scale tiny: the smoke-test sizes bench_test.go
// runs, small enough that all five finish in seconds.
func (w *workload) shrunk() *workload {
	s := *w
	s.data, s.parts, s.leadIn, s.conc = w.des, min(w.parts, 4), 0, 0
	return &s
}

func (w *workload) config(des bool) driver.Config {
	cfg := driver.DefaultConfig()
	cfg.ResultCacheEntries = w.cache
	cfg.MaxInFlight = w.inFlight
	if des {
		cfg.PollInterval = 50 * time.Millisecond
	}
	return cfg
}

func (w *workload) stageConfig(des bool) driver.StageConfig {
	s := driver.DefaultStageConfig()
	s.Partitions = w.parts
	s.BroadcastRowLimit = w.broadcast
	if des {
		s.Exchange.Poll = 100 * time.Millisecond
	}
	return s
}

// deployment is an installed, loaded deployment of either kind. A DES one
// keeps its kernel: later phases spawn a process on it and run it again.
type deployment struct {
	k     *simclock.Kernel // nil on the local deployment
	dep   *driver.Deployment
	sess  *driver.Session
	files driver.TableFiles
	stage driver.StageConfig
	env   simenv.Env // the local deployment's environment

	srv    *httptest.Server // serve_mixed only
	client *http.Client
}

func (d *deployment) close() {
	if d.srv != nil {
		d.client.CloseIdleConnections()
		d.srv.Close()
	}
}

// exec runs one request on the session, the way the workload's users do.
func (w *workload) exec(d *deployment, env simenv.Env, req request) (*columnar.Chunk, *driver.Report, error) {
	if w.single {
		return d.sess.RunSQL(env, req.sql, "lineitem", d.files["lineitem"])
	}
	return d.sess.RunSQLStaged(env, req.sql, d.files, d.stage)
}

// setupLocal builds the host-half deployment: goroutine workers, zero
// latencies, and for serve_mixed the HTTP service in front.
func (w *workload) setupLocal(data dataSpec, t tables) (*deployment, error) {
	d := &deployment{dep: driver.NewLocal(), env: simenv.NewImmediate(), stage: w.stageConfig(false)}
	d.sess = driver.NewSession(d.dep, w.config(false))
	var err error
	if d.files, err = upload(d.sess, d.env, data, t); err != nil {
		return nil, err
	}
	if w.http {
		srv := service.New(service.Config{
			Session: d.sess, Runner: service.GoRunner{}, Tables: d.files, SF: data.sf, Stage: d.stage,
			Queries: map[string]string{"q1": q1SQL, "q6": q6Year(1994), "q12": q12Exact},
		})
		d.srv = httptest.NewServer(srv.Handler())
		d.client = d.srv.Client()
	}
	return d, nil
}

// tally counts queries and failures of one phase and the per-type timings
// of its queries; shared by concurrent clients.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	roundMs   []float64
	kindMs    map[string][]float64
}

func newTally() *tally { return &tally{kindMs: map[string][]float64{}} }

func (t *tally) query(kind string, d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.kindMs[kind] = append(t.kindMs[kind], ms(d))
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
	}
}

func (t *tally) roundDone(d time.Duration) {
	t.mu.Lock()
	t.roundMs = append(t.roundMs, ms(d))
	t.mu.Unlock()
}

// post sends one request to the service and checks the rows it returns
// against want; it also returns the size of the response body.
func (d *deployment) post(req request, want *columnar.Chunk) (int, error) {
	body := service.QueryRequest{Name: req.name}
	if req.name == "" {
		body.SQL, body.Params = req.template, req.params
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Post(d.srv.URL+"/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr service.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return len(raw), err
	}
	return len(raw), sameRows(qr.Rows, want)
}

// runRound issues one round's requests in order and checks every result
// against the single-node reference. Returns the round's summed virtual
// latency (Report.Duration), which only means something on a DES
// deployment.
func (w *workload) runRound(d *deployment, env simenv.Env, orc *oracle, reqs []request, tl *tally, rec *recorder, parent, id int) (time.Duration, []*driver.Report) {
	rs := rec.start("round", parent, id)
	t0 := time.Now()
	var vlat time.Duration
	var reps []*driver.Report
	for _, req := range reqs {
		qs := rec.start("query."+req.kind, rs, id)
		q0 := time.Now()
		var err error
		if w.http && d.srv != nil {
			var want *columnar.Chunk
			if want, err = orc.want(req.sql); err == nil { // memoized before the timed rounds
				hs := rec.start("service.post", qs, id)
				_, err = d.post(req, want)
				rec.end(hs)
			}
		} else {
			ds := rec.start("driver.run", qs, id)
			got, rep, rerr := w.exec(d, env, req)
			rec.end(ds)
			err = rerr
			if err == nil {
				vlat += rep.Duration
				reps = append(reps, rep)
				var want *columnar.Chunk
				if want, err = orc.want(req.sql); err == nil {
					err = sameChunk(got, want)
				}
			}
		}
		tl.query(req.kind, time.Since(q0), err)
		rec.end(qs)
	}
	tl.roundDone(time.Since(t0))
	rec.end(rs)
	return vlat, reps
}

// hostRounds is the host half of a local workload: warm-up rounds, then the
// timed window — closed-loop clients issuing rounds back to back for
// `seconds` (at least minRounds in total) or, when sz.fixed > 0, exactly that
// many per client; the generator adds no goroutines beyond its clients —
// then the counted block: sz.counted more rounds from one client, the
// same requests on every run of a seed, over which bytes allocated are
// counted. Times come from the window, counts from the block: two
// concurrent clients make the bytes a window allocates vary by several
// percent, and how many rounds a window holds depends on the machine.
func (w *workload) hostRounds(d *deployment, orc *oracle, seed int64, sz sizes, seconds float64, rec *recorder, parent int) (tl *tally, window cost, allocPerRound float64) {
	warm := newTally()
	for c := 0; c < w.clients; c++ {
		for i := 0; i < sz.warmup; i++ {
			w.runRound(d, d.env, orc, w.round(seed, c, -1-i), warm, nil, 0, 0)
		}
	}
	tl = newTally()
	tl.attempted, tl.failed, tl.firstErr = warm.attempted, warm.failed, warm.firstErr
	perClient := (minRounds + w.clients - 1) / w.clients
	runtime.GC()
	win := openWindow()
	deadline := win.t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if sz.fixed > 0 && i >= sz.fixed {
					return
				}
				if sz.fixed == 0 && i >= perClient && time.Now().After(deadline) {
					return
				}
				w.runRound(d, d.env, orc, w.round(seed, c, i), tl, rec, parent, c*1_000_000+i+1)
			}
		}(c)
	}
	wg.Wait()
	window = win.close()

	// Round indexes from a range the window never reaches, so the block's
	// requests do not depend on how many rounds the window ran; the lead-in
	// pushes whatever the window left in the result cache out of it.
	const blockBase = 1_000_000
	block := newTally()
	for i := -w.leadIn; i < 0; i++ {
		w.runRound(d, d.env, orc, w.round(seed, 0, blockBase+i), block, nil, 0, 0)
	}
	runtime.GC()
	before := totalAlloc()
	for i := 0; i < sz.counted; i++ {
		w.runRound(d, d.env, orc, w.round(seed, 0, blockBase+i), block, nil, 0, 0)
	}
	allocPerRound = float64(totalAlloc()-before) / mb / float64(sz.counted)
	tl.attempted, tl.failed = tl.attempted+block.attempted, tl.failed+block.failed
	if tl.firstErr == nil {
		tl.firstErr = block.firstErr
	}
	return tl, window, allocPerRound
}
