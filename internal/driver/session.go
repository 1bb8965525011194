package driver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/scan"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
)

// Session is the resident layer of the driver: one long-lived binding to a
// Deployment that owns the warm state shared across queries — the installed
// worker function (and its warm container pool), the epoch fence table, the
// shared admission controller, the result cache, and the footers of the files
// it has opened — while every query run through it gets its own scheduler
// instance (query) with a private result queue, retry scope, and epoch. N
// staged queries can run concurrently on one Session from separate
// environments (DES processes or goroutines); Session state is
// mutex-protected and queries never share mutable state beyond the
// deployment's services, which are concurrency-safe by design.
//
// Driver is a thin façade over a Session bound to a single environment.
type Session struct {
	dep *Deployment
	cfg Config

	mu sync.Mutex
	// queryCounter numbers queries session-wide; the ID namespaces the
	// query's result queue, S3 prefixes, and epoch fence row.
	queryCounter int
	// epochAcquires counts acquireEpoch calls to pace the lazy TTL sweep.
	epochAcquires int

	// admission is the deployment-wide invocation budget (nil when
	// Config.MaxInFlight is 0: each query paces its own launches, see
	// query.adm).
	admission *invoke.Admission
	// cache memoizes query results by (plan fingerprint, table files); nil
	// when Config.ResultCacheEntries is 0.
	cache *resultCache
	// footers is what the driver's opens have learnt — size and decoded
	// footer per object, nothing else — so that planning reads a file's
	// footer once per session, not once per query. It stands under the
	// result cache's contract and is dropped, whole, wherever results are:
	// the files a session knows are immutable until UploadTable,
	// InvalidateTable or InvalidateResultCache says otherwise. Workers never
	// see it — they read the footers of the files they scan themselves — so
	// a stale entry can mis-plan a query, never mis-decode one.
	footers *scan.Footers
}

// NewSession returns a resident session with the normalized configuration.
// When cfg.MaxInFlight is positive the session installs its admission
// controller as the deployment's Lambda completion hook — run at most one
// admission-enabled session per deployment, or token accounting splits.
func NewSession(dep *Deployment, cfg Config) *Session {
	if cfg.FunctionName == "" {
		cfg.FunctionName = "lambada-worker"
	}
	if cfg.ResultQueue == "" {
		cfg.ResultQueue = "lambada-results"
	}
	if cfg.WorkerMemoryMiB == 0 {
		cfg.WorkerMemoryMiB = 1792
	}
	if cfg.FilesPerWorker == 0 {
		cfg.FilesPerWorker = 1
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 10 * time.Minute
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.Region == "" {
		cfg.Region = netmodel.RegionEU
	}
	if cfg.EpochTTL == 0 {
		cfg.EpochTTL = 24 * time.Hour
	}
	if cfg.EpochGCInterval == 0 {
		cfg.EpochGCInterval = 64
	}
	if dep.Deterministic {
		// DES processes must stay single-threaded, so the scan's two thread
		// levels go, like the engine's Pipelines: 1 beside them. Its request
		// levels stay: they ride s3.Client.Overlap, which starts no thread.
		cfg.Scan.DoubleBuffer = false
		cfg.Scan.ParallelFiles = 1
	}
	s := &Session{dep: dep, cfg: cfg, footers: scan.NewFooters()}
	if cfg.ResultCacheEntries > 0 {
		s.cache = newResultCache(cfg.ResultCacheEntries)
	}
	if cfg.MaxInFlight > 0 {
		s.admission = invoke.NewAdmission(cfg.MaxInFlight,
			invoke.DriverPacing(cfg.Region, 1))
		// Exact release accounting: one token back per settling container,
		// crash paths included — the hook fires wherever the Lambda
		// service's running gauge decrements.
		adm := s.admission
		dep.Lambda.SetCompletionHook(func(env simenv.Env) { adm.Release(1) })
	}
	return s
}

// Config returns the session's normalized configuration.
func (d *Session) Config() Config { return d.cfg }

// Deployment returns the bound deployment.
func (d *Session) Deployment() *Deployment { return d.dep }

// Admission returns the shared admission controller (nil when MaxInFlight
// is 0).
func (d *Session) Admission() *invoke.Admission { return d.admission }

// Install registers the worker function and creates the base result queue —
// the installation step of the usage model (Figure 2), done once per
// session. Individual queries derive their own queues from the base name.
func (d *Session) Install() error {
	d.dep.SQS.CreateQueue(d.cfg.ResultQueue)
	return d.dep.Lambda.CreateFunction(d.cfg.FunctionName, d.cfg.WorkerMemoryMiB, d.cfg.Timeout, d.workerHandler)
}

// retryBudget resolves Config.RetryBudget into a fresh per-scope budget.
func (d *Session) retryBudget() *resilience.Budget {
	n := d.cfg.RetryBudget
	if n == 0 {
		n = 256
	}
	if n < 0 {
		return nil // unlimited
	}
	return resilience.NewBudget(n)
}

// retryPolicy returns the policy of one execution scope — the driver side
// of one query, or one worker invocation: every substrate call of the scope,
// S3 included, runs under it, so they share its fresh retry budget, its
// stats counter (surfaced in the Report) and its backoff jitter stream,
// derived from seed — distinct seeds decorrelate concurrent scopes while
// staying reproducible across runs.
func (d *Session) retryPolicy(seed int64) resilience.Policy {
	return resilience.Policy{Budget: d.retryBudget(), Stats: &resilience.Stats{}, Seed: seed, Trace: d.dep.Trace}
}

// bumpEpochAcquires counts one epoch acquisition session-wide and reports
// whether this one should run the lazy TTL sweep.
func (d *Session) bumpEpochAcquires() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epochAcquires++
	return d.epochAcquires%d.cfg.EpochGCInterval == 0
}

// query is one per-query scheduler instance: the driver-side state of a
// single query running on a resident session. Its cfg is the session's with
// ResultQueue rewritten to the query-private queue, so every driver- and
// payload-side reference routes automatically.
type query struct {
	s   *Session
	dep *Deployment
	cfg Config
	env simenv.Env
	// id is the session-unique query ID ("q1", "q2", ...).
	id string

	// adm governs the query's launches: the session's shared admission
	// controller under Config.MaxInFlight, a private unlimited one — all
	// pacer, no cap — otherwise.
	adm *invoke.Admission
	// retry is the policy of this query's driver-side retry scope.
	retry resilience.Policy

	// costBefore, wakeupsBefore, start and span are the measurement window
	// begin opened: the meter and wakeup-counter readings and the instant
	// the Report's deltas are taken against, and the root query span (0
	// when tracing is off).
	costBefore    obs.Cost
	wakeupsBefore uint64
	start         time.Duration
	span          obs.SpanID
}

// queryQueueName derives a query's private result-queue name.
func queryQueueName(base, queryID string) string { return base + "-" + queryID }

// newQuery opens a per-query scheduler: next session-wide ID, a private
// result queue (created empty; per-query routing is what lets N schedulers
// collect concurrently without destroying each other's completions), and a
// fresh retry scope.
func (s *Session) newQuery(env simenv.Env) *query {
	s.mu.Lock()
	s.queryCounter++
	n := s.queryCounter
	s.mu.Unlock()
	cfg := s.cfg
	id := fmt.Sprintf("q%d", n)
	cfg.ResultQueue = queryQueueName(s.cfg.ResultQueue, id)
	s.dep.SQS.CreateQueue(cfg.ResultQueue)
	q := &query{s: s, dep: s.dep, cfg: cfg, env: env, id: id, adm: s.admission}
	if q.adm == nil {
		q.adm = invoke.NewAdmission(0, invoke.DriverPacing(cfg.Region, 1))
	}
	q.retry = s.retryPolicy(-1)
	return q
}

// client returns a driver-side S3 client: its retries come out of the query's
// budget and are counted in Report.DriverRetries, like every other call the
// driver makes for the query.
func (d *query) client() *s3.Client {
	return s3.NewClient(d.dep.S3, d.env, s3.WithPolicy(d.retry))
}

// source returns a driver-side scan source over files, reading through
// client and sharing the session's footers.
func (d *query) source(client *s3.Client, files ...scan.FileRef) *scan.Source {
	src := scan.New(client, d.cfg.Scan, files...)
	src.Footers = d.s.footers
	return src
}

// close releases the query's span binding — back-filling the end of any
// driver-side span an error path left open — and tears down its private
// queue. A zombie worker posting to the deleted queue gets a harmless
// ErrNoSuchQueue; a later same-named query (fresh driver restart reusing
// the counter) starts from an empty queue either way, and its epoch fence
// discards any zombie that does land.
func (d *query) close() {
	d.dep.Trace.Release(d.env, d.env.Now())
	d.dep.SQS.DeleteQueue(d.cfg.ResultQueue)
}

// ---- result cache ----

// resultCache memoizes query results by (plan fingerprint, table files).
// Entries hold the result as an lpq blob — the same wire form workers post —
// so a hit decodes to a chunk byte-identical to a fresh run's. Eviction is
// FIFO, which is deterministic; invalidation is by table name (UploadTable
// and the service's invalidate endpoint) or wholesale.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]cacheEntry
	order   []string
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	blob   []byte
	tables map[string]bool
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]cacheEntry)}
}

func (c *resultCache) lookup(key string) ([]byte, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		return e.blob, true
	}
	c.misses++
	return nil, false
}

func (c *resultCache) store(key string, tables TableFiles, chunk *columnar.Chunk) {
	if c == nil || key == "" || chunk == nil {
		return
	}
	blob, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk)
	if err != nil {
		return
	}
	names := make(map[string]bool, len(tables))
	for name := range tables {
		names[name] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		for len(c.order) >= c.max {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = cacheEntry{blob: blob, tables: names}
}

func (c *resultCache) invalidateTable(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.order[:0]
	for _, key := range c.order {
		if c.entries[key].tables[name] {
			delete(c.entries, key)
			continue
		}
		kept = append(kept, key)
	}
	c.order = kept
}

func (c *resultCache) clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]cacheEntry)
	c.order = nil
}

func (c *resultCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cacheKey builds the (plan fingerprint, table files) cache key. It must
// run before Decompose mutates the plan. Empty ("") means uncacheable —
// caching then silently skips.
func (d *Session) cacheKey(plan engine.Plan, tables TableFiles) string {
	if d.cache == nil {
		return ""
	}
	fp, err := stageplan.Fingerprint(plan)
	if err != nil {
		return ""
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(fp)
	for _, name := range names {
		b.WriteByte(';')
		b.WriteString(name)
		b.WriteByte('=')
		for _, f := range tables[name] {
			b.WriteByte(',')
			b.WriteString(f.Bucket)
			b.WriteByte('/')
			b.WriteString(f.Key)
		}
	}
	return b.String()
}

// InvalidateTable drops every cached result that read the named table, and
// the footers of every file the session has opened: they are kept by object,
// and which table an object belongs to is the caller's knowledge.
func (d *Session) InvalidateTable(name string) {
	d.cache.invalidateTable(name)
	d.footers.Drop()
}

// InvalidateResultCache drops everything the session remembers about the
// data: every cached result and every footer.
func (d *Session) InvalidateResultCache() {
	d.cache.clear()
	d.footers.Drop()
}

// CacheStats returns cumulative result-cache hits and misses.
func (d *Session) CacheStats() (hits, misses uint64) { return d.cache.stats() }

// ---- session-level query API ----
// Every entrance is Run with its arguments put in Run's terms; N callers may
// run concurrently, each on its own environment.

// RunSQL parses and runs a SQL query over one table.
func (d *Session) RunSQL(env simenv.Env, sql, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.runSQL(env, sql, TableFiles{table: files}, nil, DefaultStageConfig())
}

// RunSQLBroadcast is RunSQL with extra driver-resident tables.
func (d *Session) RunSQLBroadcast(env simenv.Env, sql, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	return d.runSQL(env, sql, TableFiles{table: files}, broadcast, DefaultStageConfig())
}

// RunSQLStaged is RunSQL over any number of tables, the planner's knobs exposed.
func (d *Session) RunSQLStaged(env simenv.Env, sql string, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.runSQL(env, sql, tables, nil, cfg)
}

// RunPlan runs an engine plan over one table.
func (d *Session) RunPlan(env simenv.Env, plan engine.Plan, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.Run(env, plan, TableFiles{table: files}, nil, DefaultStageConfig())
}

// RunPlanBroadcast is RunPlan with extra driver-resident tables.
func (d *Session) RunPlanBroadcast(env simenv.Env, plan engine.Plan, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	return d.Run(env, plan, TableFiles{table: files}, broadcast, DefaultStageConfig())
}

// RunPlanStaged is RunPlan over any number of tables, the planner's knobs exposed.
func (d *Session) RunPlanStaged(env simenv.Env, plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.Run(env, plan, tables, nil, cfg)
}

// runSQL is Run on the parsed text.
func (d *Session) runSQL(env simenv.Env, sql string, tables TableFiles, local map[string]*columnar.Chunk, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return d.Run(env, plan, tables, local, cfg)
}

// Run is the one entrance: it opens a per-query scheduler on the caller's
// environment, plans and runs the query on it — over tables, the S3-backed
// ones, and local, the driver-resident ones — and tears its queue down. A
// query whose inputs are all S3 files consults the result cache first: a hit
// is the memoized result (byte-identical to a fresh run), the deployment
// untouched. One with driver-resident tables has no key: the cache cannot
// tell one chunk's contents from another's.
func (d *Session) Run(env simenv.Env, plan engine.Plan, tables TableFiles, local map[string]*columnar.Chunk, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	key := ""
	if len(local) == 0 {
		key = d.cacheKey(plan, tables)
	}
	if blob, ok := d.cache.lookup(key); ok {
		c, err := decodeChunk(blob, 0)
		if err == nil {
			return c, &Report{CacheHit: true}, nil
		}
		// An undecodable entry is a bug, but never worth failing the query
		// over: fall through to a fresh run that overwrites it.
	}
	q := d.newQuery(env)
	defer q.close()
	res, rep, err := q.plan(plan, tables, local, cfg)
	if err == nil {
		d.cache.store(key, tables, res)
	}
	return res, rep, err
}
