package driver

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
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
// It is the driver of the usage model (Figure 2): NewSession, Install once,
// then Run — or RunSQL / RunSQLStaged on query text — with the caller's
// environment on every call.
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

const (
	// maxWait bounds result collection: a query whose seals are still
	// missing this long after its first launch pass fails.
	maxWait = 10 * time.Minute
	// epochTTL bounds the lifetime of an epoch fence item in the staging
	// table: the lazy sweep deletes an item this long after its last
	// increment. It must comfortably exceed the function timeout, so a live
	// query's fence is never collected.
	epochTTL = 24 * time.Hour
	// epochGCInterval is the number of epoch acquisitions between lazy
	// sweeps of expired fence items.
	epochGCInterval = 64
	// defaultRetryBudget is Config.RetryBudget's default.
	defaultRetryBudget = 256
)

// NewSession returns a resident session with the normalized configuration:
// a zero field of cfg takes DefaultConfig's value.
// When cfg.MaxInFlight is positive the session installs its admission
// controller as the deployment's Lambda completion hook — run at most one
// admission-enabled session per deployment, or token accounting splits.
func NewSession(dep *Deployment, cfg Config) *Session {
	def := DefaultConfig()
	cfg.FunctionName = cmp.Or(cfg.FunctionName, def.FunctionName)
	cfg.ResultQueue = cmp.Or(cfg.ResultQueue, def.ResultQueue)
	cfg.WorkerMemoryMiB = cmp.Or(cfg.WorkerMemoryMiB, def.WorkerMemoryMiB)
	cfg.FilesPerWorker = cmp.Or(cfg.FilesPerWorker, def.FilesPerWorker)
	cfg.PollInterval = cmp.Or(cfg.PollInterval, def.PollInterval)
	cfg.Timeout = cmp.Or(cfg.Timeout, def.Timeout)
	cfg.Region = cmp.Or(cfg.Region, def.Region)
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = defaultRetryBudget
	}
	s := &Session{dep: dep, cfg: cfg, footers: scan.NewFooters()}
	if cfg.ResultCacheEntries > 0 {
		s.cache = newResultCache(cfg.ResultCacheEntries)
	}
	if cfg.MaxInFlight > 0 {
		s.admission = invoke.NewAdmission(cfg.MaxInFlight,
			invoke.DriverPacing(cfg.Region, invoke.RequesterThreads))
		// Exact release accounting: one token back per settling container,
		// crash paths included — the hook fires wherever the Lambda
		// service's running gauge decrements.
		adm := s.admission
		dep.Lambda.SetCompletionHook(func(env simenv.Env) { adm.Release(1) })
	}
	return s
}

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

// retryPolicy returns the policy of one execution scope — the driver side
// of one query, or one worker invocation: every substrate call of the scope,
// S3 included, runs under it, so they share its fresh retry budget, its
// stats counter (surfaced in the Report) and its backoff jitter stream,
// derived from seed — distinct seeds decorrelate concurrent scopes while
// staying reproducible across runs.
func (d *Session) retryPolicy(seed int64) resilience.Policy {
	return resilience.Policy{Budget: resilience.NewBudget(d.cfg.RetryBudget), Stats: &resilience.Stats{}, Seed: seed, Trace: d.dep.Trace}
}

// bumpEpochAcquires counts one epoch acquisition session-wide and reports
// whether this one should run the lazy TTL sweep.
func (d *Session) bumpEpochAcquires() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epochAcquires++
	return d.epochAcquires%epochGCInterval == 0
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
	// reclaiming: the query's reclaim pass is a kernel process still running.
	reclaiming bool
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
		q.adm = invoke.NewAdmission(0, invoke.DriverPacing(cfg.Region, invoke.RequesterThreads))
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
	src := scan.New(client, scan.DefaultConfig(), files...)
	src.Footers = d.s.footers
	return src
}

// close releases the query's span binding — back-filling the end of any
// driver-side span an error path left open — and tears down its private
// queue, if reclaim has not. A worker posting to the deleted queue gets
// ErrNoSuchQueue (workerHandler); a later same-named query (fresh driver
// restart reusing the counter) starts from an empty queue either way, and
// its epoch fence discards any zombie that does land.
func (d *query) close() {
	d.dep.Trace.Release(d.env, d.env.Now())
	d.dep.SQS.DeleteQueue(d.cfg.ResultQueue)
}

// ---- result cache ----

// resultCache memoizes query results by (plan fingerprint, table files).
// Entries hold the result as an lpq blob — the same wire form workers post —
// so a hit decodes to a chunk byte-identical to a fresh run's. Eviction is
// least-recently-used — order runs from the coldest key to the last one
// stored or hit — which is deterministic; invalidation is by table name
// (UploadTable and the service's invalidate endpoint) or wholesale.
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
	size   int64 // the result's ByteSize, the bound blob decodes within
	tables map[string]bool
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]cacheEntry)}
}

func (c *resultCache) lookup(key string) (cacheEntry, bool) {
	if c == nil || key == "" {
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		i := slices.Index(c.order, key)
		c.order = append(slices.Delete(c.order, i, i+1), key)
		return e, true
	}
	c.misses++
	return cacheEntry{}, false
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
	c.entries[key] = cacheEntry{blob: blob, size: chunk.ByteSize(), tables: names}
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
	var b strings.Builder
	b.WriteString(fp)
	for _, name := range sortedStringKeys(tables) {
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
// Run is the entrance; RunSQL and RunSQLStaged parse query text for it. N
// callers may run concurrently, each on its own environment.

// RunSQL parses and runs a SQL query over one table.
func (d *Session) RunSQL(env simenv.Env, sql, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.RunSQLStaged(env, sql, TableFiles{table: files}, DefaultStageConfig())
}

// RunSQLStaged is RunSQL over any number of tables, the planner's knobs exposed.
func (d *Session) RunSQLStaged(env simenv.Env, sql string, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return d.Run(env, plan, tables, cfg)
}

// Run is the one entrance: it opens a per-query scheduler on the caller's
// environment, plans and runs the query on it over tables — every table a
// query reads lives on S3 — and tears its queue down. It consults the result
// cache first: a hit is the memoized result (byte-identical to a fresh run),
// the deployment untouched.
func (d *Session) Run(env simenv.Env, plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	key := d.cacheKey(plan, tables)
	if e, ok := d.cache.lookup(key); ok {
		c, err := lpq.ReadFiles(e.size, e.blob)
		if err == nil {
			return c, &Report{CacheHit: true}, nil
		}
		// An undecodable entry is a bug, but never worth failing the query
		// over: fall through to a fresh run that overwrites it.
	}
	q := d.newQuery(env)
	defer q.close()
	res, rep, err := q.plan(plan, tables, cfg)
	if err == nil {
		d.cache.store(key, tables, res)
	}
	return res, rep, err
}
