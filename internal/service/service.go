// Package service exposes a resident driver.Session as an HTTP/JSON query
// endpoint — Lambada as a query service rather than a one-shot CLI. The
// deployment is installed once; every POST /query runs on the same session,
// sharing the warm container pool, the deployment-wide admission budget,
// the result cache and the footers of the files it has opened, so a repeated
// query costs nothing, a new one plans without reading S3, and concurrent
// requests interleave on one serverless fleet.
//
// Execution is abstracted behind Runner so the same server fronts either a
// real-time local deployment (every request runs inline on its own
// goroutine) or a discrete-event simulation (requests are injected as DES
// processes into a kernel the runner owns, batched over a short arrival
// window so concurrent HTTP requests become concurrent virtual queries).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/qaas"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
)

// Runner executes one query-service request against the deployment's
// substrate environment and blocks until it finishes.
type Runner interface {
	Run(fn func(env simenv.Env) error) error
}

// GoRunner serves requests inline on the caller's goroutine against a
// real-time deployment: N concurrent HTTP requests are N concurrent
// sessions-side queries with no further ceremony.
type GoRunner struct{}

// Run executes fn with an immediate (real-time) environment.
func (GoRunner) Run(fn func(env simenv.Env) error) error {
	return fn(simenv.NewImmediate())
}

type desJob struct {
	fn   func(env simenv.Env) error
	done chan error
}

// DESRunner injects requests as processes into a discrete-event kernel it
// owns. The kernel is single-owner by construction, so requests queue on a
// channel and the Serve goroutine drains them: each batch — everything that
// arrived within Window of the first job — is spawned as concurrent DES
// processes and run to completion in virtual time. Requests that arrive
// together therefore interleave on the simulated deployment exactly like
// the concurrent-session tests.
type DESRunner struct {
	// Window is how long (real time) the runner gathers jobs after the
	// first arrival before starting the batch.
	Window time.Duration

	k    *simclock.Kernel
	jobs chan desJob
}

// NewDESRunner wraps a kernel. Call Serve on its own goroutine before the
// first Run, and Close when done.
func NewDESRunner(k *simclock.Kernel, window time.Duration) *DESRunner {
	return &DESRunner{Window: window, k: k, jobs: make(chan desJob)}
}

// Run enqueues the request and blocks until its DES process finished.
func (r *DESRunner) Run(fn func(env simenv.Env) error) error {
	done := make(chan error, 1)
	r.jobs <- desJob{fn: fn, done: done}
	return <-done
}

// Serve owns the kernel: it gathers request batches and runs each to
// quiescence. Returns when Close is called.
func (r *DESRunner) Serve() {
	for job, ok := <-r.jobs; ok; job, ok = <-r.jobs {
		batch := []desJob{job}
		if r.Window > 0 {
			timer := time.NewTimer(r.Window)
		gather:
			for {
				select {
				case j, open := <-r.jobs:
					if !open {
						break gather
					}
					batch = append(batch, j)
				case <-timer.C:
					break gather
				}
			}
			timer.Stop()
		}
		for i := range batch {
			j := batch[i]
			r.k.Go(fmt.Sprintf("request%d", i), func(p *simclock.Proc) {
				j.done <- j.fn(p)
			})
		}
		r.k.Run()
	}
}

// Close stops Serve. Pending Run calls that lost the race error out only by
// panicking on the closed channel, so close after the HTTP server drained.
func (r *DESRunner) Close() { close(r.jobs) }

// Config wires a Server.
type Config struct {
	// Session is the resident session every query runs on.
	Session *driver.Session
	// Runner executes requests (GoRunner or a DESRunner).
	Runner Runner
	// Tables maps the registered table names to their uploaded files.
	Tables driver.TableFiles
	// SF is the scale factor of the registered data, for the QaaS dollar
	// comparison.
	SF float64
	// Stage is the base stage configuration; per-request fields override it.
	Stage driver.StageConfig
	// Queries maps shorthand names ("q1", "q6", ...) to SQL texts.
	Queries map[string]string
}

// Server is the HTTP query service.
type Server struct {
	cfg Config

	mu      sync.Mutex
	queries uint64
}

// New returns a server over the given resident session.
func New(cfg Config) *Server { return &Server{cfg: cfg} }

// Handler returns the route mux:
//
//	POST /query      run a query ({"sql": ...} or {"name": "q6"})
//	POST /invalidate drop cached results ({"table": "x"} or {} for all) and,
//	                 either way, the footers the session has read
//	GET  /session    session statistics (cache, admission, query count)
//	GET  /stats      cumulative deployment cost meter
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/invalidate", s.handleInvalidate)
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// QueryRequest is the POST /query body. Exactly one of Name and SQL is
// required; Params are substituted for :name placeholders in the SQL text.
type QueryRequest struct {
	Name   string            `json:"name,omitempty"`
	SQL    string            `json:"sql,omitempty"`
	Params map[string]string `json:"params,omitempty"`
	// Partitions overrides the exchange boundary fan-in (0 = server
	// default).
	Partitions int `json:"partitions,omitempty"`
}

// ColumnJSON describes one result column.
type ColumnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// ProfileJSON is the per-query profile of a response.
type ProfileJSON struct {
	QueryID       string  `json:"queryId"`
	CacheHit      bool    `json:"cacheHit"`
	Workers       int     `json:"workers"`
	Stages        int     `json:"stages,omitempty"`
	ColdWorkers   int     `json:"coldWorkers"`
	Speculated    int     `json:"speculated,omitempty"`
	DurationNs    int64   `json:"durationNs"`
	InvocationNs  int64   `json:"invocationNs"`
	BilledUSD     float64 `json:"billedUsd"`
	S3GetRequests int64   `json:"s3GetRequests"`
	S3ReadBytes   int64   `json:"s3ReadBytes"`
}

// QaaSJSON is the per-request dollar comparison against the modeled QaaS
// competitors, present when the query name has a calibrated billing spec.
type QaaSJSON struct {
	Query       string  `json:"query"`
	SF          float64 `json:"sf"`
	LambadaUSD  float64 `json:"lambadaUsd"`
	AthenaUSD   float64 `json:"athenaUsd"`
	BigQueryUSD float64 `json:"bigqueryUsd"`
	AthenaNs    int64   `json:"athenaNs"`
	BigQueryNs  int64   `json:"bigqueryNs"`
}

// QueryResponse is the POST /query response.
type QueryResponse struct {
	Columns []ColumnJSON    `json:"columns"`
	Rows    [][]interface{} `json:"rows"`
	Profile ProfileJSON     `json:"profile"`
	QaaS    *QaaSJSON       `json:"qaas,omitempty"`
}

const (
	// maxBodyBytes bounds a request body: the largest legitimate one is a
	// SQL text with its parameters.
	maxBodyBytes = 1 << 20
	// maxPartitions bounds the "partitions" override, which sizes a worker
	// fleet and its payload slice from the request body: 4096 workers is the
	// paper's largest fleet (§4.2 spawns 4k functions).
	maxPartitions = 4096
)

// decodeBody reads a request's JSON body into v, at most maxBodyBytes of it.
// On failure it has answered — 413 for an oversized body, 400 for a
// malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request body: "+err.Error(), code)
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Partitions < 0 || req.Partitions > maxPartitions {
		http.Error(w, fmt.Sprintf(`"partitions" %d outside [0, %d]`, req.Partitions, maxPartitions), http.StatusBadRequest)
		return
	}
	sql := req.SQL
	if req.Name != "" {
		named, ok := s.cfg.Queries[strings.ToLower(req.Name)]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown query name %q", req.Name), http.StatusBadRequest)
			return
		}
		sql = named
	}
	if sql == "" {
		http.Error(w, `need "sql" or "name"`, http.StatusBadRequest)
		return
	}
	sql, err := substituteParams(sql, req.Params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Parsed here, not in the runner: SQL that does not parse is the
	// client's error and never takes a slot of a DES batch.
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	scfg := s.cfg.Stage
	if req.Partitions > 0 {
		scfg.Partitions = req.Partitions
	}
	var out *columnar.Chunk
	var rep *driver.Report
	runErr := s.cfg.Runner.Run(func(env simenv.Env) error {
		var qerr error
		out, rep, qerr = s.cfg.Session.RunPlanStaged(env, plan, s.cfg.Tables, scfg)
		return qerr
	})
	if runErr != nil {
		code := http.StatusInternalServerError
		if errors.Is(runErr, driver.ErrInvalidPlan) {
			code = http.StatusBadRequest
		}
		http.Error(w, runErr.Error(), code)
		return
	}
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()

	resp := QueryResponse{
		Columns: columnsJSON(out),
		Rows:    rowsJSON(out),
		Profile: ProfileJSON{
			QueryID:       rep.QueryID,
			CacheHit:      rep.CacheHit,
			Workers:       rep.Workers,
			Stages:        rep.Stages,
			ColdWorkers:   rep.ColdWorkers,
			Speculated:    rep.Speculated,
			DurationNs:    int64(rep.Duration),
			InvocationNs:  int64(rep.Invocation),
			BilledUSD:     rep.TotalCost,
			S3GetRequests: rep.Cost.S3Get,
			S3ReadBytes:   rep.Cost.S3ReadBytes,
		},
	}
	if spec, ok := qaas.SpecFor(req.Name); ok {
		c := qaas.Compare(spec, s.cfg.SF, pricing.USD(rep.TotalCost), rep.Duration)
		resp.QaaS = &QaaSJSON{
			Query:       spec.Name,
			SF:          s.cfg.SF,
			LambadaUSD:  float64(c.Ours),
			AthenaUSD:   float64(c.Athena.Cost),
			BigQueryUSD: float64(c.BigQuery.Cost),
			AthenaNs:    int64(c.Athena.Latency),
			BigQueryNs:  int64(c.BigQuery.Latency),
		}
	}
	writeJSON(w, resp)
}

// InvalidateRequest is the POST /invalidate body; an empty table drops the
// whole cache. The session's footers go with either.
type InvalidateRequest struct {
	Table string `json:"table,omitempty"`
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req InvalidateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Table == "" {
		s.cfg.Session.InvalidateResultCache()
	} else {
		s.cfg.Session.InvalidateTable(req.Table)
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// SessionJSON is the GET /session response.
type SessionJSON struct {
	Queries     uint64   `json:"queries"`
	CacheHits   uint64   `json:"cacheHits"`
	CacheMisses uint64   `json:"cacheMisses"`
	Tables      []string `json:"tables"`
	// Admission statistics; Capacity 0 means no deployment-wide cap.
	Capacity int    `json:"capacity"`
	InFlight int    `json:"inFlight"`
	Peak     int    `json:"peak"`
	Blocked  uint64 `json:"blocked"`
	Overflow uint64 `json:"overflow"`
	Acquired uint64 `json:"acquired"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := s.queries
	s.mu.Unlock()
	hits, misses := s.cfg.Session.CacheStats()
	var names []string
	for name := range s.cfg.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := SessionJSON{Queries: n, CacheHits: hits, CacheMisses: misses, Tables: names}
	if adm := s.cfg.Session.Admission(); adm != nil {
		resp.Capacity = adm.Capacity()
		resp.InFlight = adm.InFlight()
		resp.Peak = adm.Peak()
		resp.Blocked = adm.Blocked()
		resp.Overflow = adm.Overflow()
		resp.Acquired = adm.Acquired()
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	lines, total := pricing.Bill(s.cfg.Session.Deployment().Meter.Cost())
	costs := map[string]float64{}
	counts := map[string]int64{}
	for _, l := range lines {
		costs[l.Label] = float64(l.USD)
		counts[l.Label] = l.Count
	}
	writeJSON(w, map[string]interface{}{
		"totalUsd": float64(total),
		"costs":    costs,
		"counts":   counts,
	})
}

// substituteParams replaces every :name placeholder with its value —
// numbers raw, everything else as an escaped SQL string literal. Unknown
// placeholders are an error so typos fail loudly instead of reaching the
// parser.
func substituteParams(sql string, params map[string]string) (string, error) {
	for name, val := range params {
		placeholder := ":" + name
		if !strings.Contains(sql, placeholder) {
			return "", fmt.Errorf("param %q has no :%s placeholder in the query", name, name)
		}
		sql = strings.ReplaceAll(sql, placeholder, sqlLiteral(val))
	}
	if i := strings.IndexByte(sql, ':'); i >= 0 && i+1 < len(sql) && isIdentStart(sql[i+1]) {
		return "", fmt.Errorf("unbound parameter at %q", sql[i:min(i+12, len(sql))])
	}
	return sql, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// sqlLiteral renders a parameter value: numeric text passes through,
// anything else becomes a single-quoted literal with quotes doubled.
func sqlLiteral(v string) string {
	numeric := v != ""
	dot := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '.' && !dot {
			dot = true
			continue
		}
		if c == '-' && i == 0 {
			continue
		}
		if c < '0' || c > '9' {
			numeric = false
			break
		}
	}
	if numeric {
		return v
	}
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

func columnsJSON(c *columnar.Chunk) []ColumnJSON {
	cols := make([]ColumnJSON, len(c.Schema.Fields))
	for i, f := range c.Schema.Fields {
		cols[i] = ColumnJSON{Name: f.Name, Type: f.Type.String()}
	}
	return cols
}

func rowsJSON(c *columnar.Chunk) [][]interface{} {
	rows := make([][]interface{}, c.NumRows())
	for i := range rows {
		row := make([]interface{}, len(c.Columns))
		for j, col := range c.Columns {
			switch col.Type {
			case columnar.Int64:
				row[j] = col.Int64s[i]
			case columnar.Float64:
				row[j] = col.Float64s[i]
			case columnar.Bool:
				row[j] = col.Bools[i]
			}
		}
		rows[i] = row
	}
	return rows
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
