package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/sqlfe"
	"lambada/internal/tpch"
)

// The query texts. q12 is the exact-integer join text of the internal/driver
// tests, so a staged result equals the single-node one to the last bit; Q1
// and Q6 sum floats, whose last digits depend on merge order, and are
// compared with a relative tolerance instead.
const q1SQL = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const q6Template = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE :lo AND l_shipdate < DATE :hi
  AND l_discount BETWEEN :dlo AND :dhi AND l_quantity < :qty`

// q12Exact is the text BenchmarkStagedQ12Fleet runs, kept verbatim so the
// DES workloads continue that history; the template adds a quantity cut
// for serve_mixed's parameter space.
const q12Exact = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_linenumber) AS lines,
       MIN(l_shipdate) AS first_ship, MAX(l_shipdate) AS last_ship
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

const q12Template = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_linenumber) AS lines,
       MIN(l_shipdate) AS first_ship, MAX(l_shipdate) AS last_ship
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE :lo AND l_receiptdate < DATE :hi
  AND l_commitdate < l_receiptdate AND l_quantity < :qty
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

// bind substitutes :name placeholders the way the service's parameter
// binding does: numbers raw, anything else as a quoted literal.
func bind(template string, params map[string]string) string {
	pairs := make([]string, 0, 2*len(params))
	for k, v := range params {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			v = "'" + v + "'"
		}
		pairs = append(pairs, ":"+k, v)
	}
	return strings.NewReplacer(pairs...).Replace(template)
}

func q6Params(year, disc, qty int) map[string]string {
	return map[string]string{
		"lo": fmt.Sprintf("%d-01-01", year), "hi": fmt.Sprintf("%d-01-01", year+1),
		"dlo": fmt.Sprintf("%.7f", float64(disc)/100-0.0100001),
		"dhi": fmt.Sprintf("%.7f", float64(disc)/100+0.0100001),
		"qty": fmt.Sprint(qty),
	}
}

func q12Params(year, qty int) map[string]string {
	return map[string]string{
		"lo": fmt.Sprintf("%d-01-01", year), "hi": fmt.Sprintf("%d-01-01", year+1),
		"qty": fmt.Sprint(qty),
	}
}

// q6Year is TPC-H Q6 over one ship year; 1994 is the standard text.
func q6Year(year int) string { return bind(q6Template, q6Params(year, 6, 24)) }

// request is one query of a round. sql is always the full text (what the
// oracle and the Session path run); name or template+params say how the
// HTTP client of serve_mixed phrases it.
type request struct {
	kind     string // q1, q6, q12, q1staged: the per-query-type timing bucket
	sql      string
	name     string
	template string
	params   map[string]string
}

// The 240-combination parameter space of serve_mixed's raw-SQL half: 120
// Q6 variants (6 years x 5 discounts x 4 quantities) and 120 q12 variants
// (6 years x 20 quantity cuts) against a 32-entry result cache.
func q6Variant(i int) request {
	p := q6Params(1993+i%6, 3+(i/6)%5, 24+(i/30)%4)
	return request{kind: "q6", sql: bind(q6Template, p), template: q6Template, params: p}
}

func q12Variant(i int) request {
	p := q12Params(1993+i%6, 31+(i/6)%20)
	return request{kind: "q12", sql: bind(q12Template, p), template: q12Template, params: p}
}

const variantsPerQuery = 120

// ---- rounds ----

// A round is a function of (seed, client, index) alone, so the request mix
// does not depend on how fast earlier rounds ran. Warm-up rounds have
// negative indexes.
type roundFunc func(seed int64, client, idx int) []request

func roundRNG(seed int64, client, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*100_003 + int64(idx)))
}

// scanRound is 1 x Q1 + 6 x Q6 with the Q6 year drawn from 1993-1998, so
// both query types contribute comparable time to a round.
func scanRound(seed int64, client, idx int) []request {
	rng := roundRNG(seed, client, idx)
	rs := []request{{kind: "q1", sql: q1SQL}}
	for i := 0; i < 6; i++ {
		rs = append(rs, request{kind: "q6", sql: q6Year(1993 + rng.Intn(6))})
	}
	return rs
}

// shuffleRound moves large partitions (q12) and tiny partials (staged Q1)
// through the exchange.
func shuffleRound(int64, int, int) []request {
	return []request{{kind: "q12", sql: q12Exact}, {kind: "q1staged", sql: q1SQL}}
}

func q12Round(int64, int, int) []request { return []request{{kind: "q12", sql: q12Exact}} }

// serveRound is four named repeats (a working set that fits the result
// cache) and four variants from the 240-combination space (one that does
// not). Each client walks its own seeded permutation of the variants, two
// per query type and round, so a variant comes round again only after 60
// rounds, long after the 32-entry cache has dropped it, and the 60 rounds
// of the counted block issue every one of the 240 texts exactly once
// whatever the seed.
func serveRound(seed int64, client, idx int) []request {
	rng := roundRNG(seed, client, 0)
	q6s, q12s := rng.Perm(variantsPerQuery), rng.Perm(variantsPerQuery)
	at := func(perm []int, k int) int {
		return perm[((2*idx+k)%variantsPerQuery+variantsPerQuery)%variantsPerQuery]
	}
	return []request{
		{kind: "q1staged", sql: q1SQL, name: "q1"},
		{kind: "q6", sql: q6Year(1994), name: "q6"},
		{kind: "q12", sql: q12Exact, name: "q12"},
		{kind: "q6", sql: q6Year(1994), name: "q6"},
		q6Variant(at(q6s, 0)),
		q12Variant(at(q12s, 0)),
		q6Variant(at(q6s, 1)),
		q12Variant(at(q12s, 1)),
	}
}

// ---- data ----

// dataSpec sizes one deployment's tables.
type dataSpec struct {
	sf       float64
	liFiles  int
	ordFiles int // 0: the workload reads lineitem only
	opts     lpq.WriterOptions
}

type tables struct {
	li, ord *columnar.Chunk
}

func generate(d dataSpec, seed int64) tables {
	g := tpch.Gen{SF: d.sf, Seed: seed}
	t := tables{li: g.Generate()}
	if d.ordFiles > 0 {
		t.ord = g.OrdersFor(t.li)
	}
	return t
}

// upload installs the worker function and stores the tables as lpq files —
// the installation step a user pays once.
func upload(sess *driver.Session, env simenv.Env, d dataSpec, t tables) (driver.TableFiles, error) {
	if err := sess.Install(); err != nil {
		return nil, err
	}
	files := driver.TableFiles{}
	refs, err := sess.UploadTable(env, "tpch", "lineitem", t.li, d.liFiles, d.opts)
	if err != nil {
		return nil, err
	}
	files["lineitem"] = refs
	if t.ord != nil {
		if refs, err = sess.UploadTable(env, "tpch", "orders", t.ord, d.ordFiles, d.opts); err != nil {
			return nil, err
		}
		files["orders"] = refs
	}
	return files, nil
}

// ---- oracle ----

// oracle answers every query on a single node with engine.Execute over the
// in-memory tables — the reference every distributed result is held to.
type oracle struct {
	t    tables
	mu   sync.Mutex
	memo map[string]*columnar.Chunk
}

func newOracle(t tables) *oracle { return &oracle{t: t, memo: map[string]*columnar.Chunk{}} }

func (o *oracle) catalog() engine.Catalog {
	cat := engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), o.t.li)}
	if o.t.ord != nil {
		cat["orders"] = engine.NewMemSource(tpch.OrdersSchema(), o.t.ord)
	}
	return cat
}

func (o *oracle) want(sql string) (*columnar.Chunk, error) {
	o.mu.Lock()
	c, ok := o.memo[sql]
	o.mu.Unlock()
	if ok {
		return c, nil
	}
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, err
	}
	if c, err = engine.Execute(plan, o.catalog()); err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.memo[sql] = c
	o.mu.Unlock()
	return c, nil
}

// prime computes the references of every listed query on two goroutines
// (the benchmark's whole CPU budget), so no timed round ever waits for one.
func (o *oracle) prime(sqls []string) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sqls); i += 2 {
				if _, err := o.want(sqls[i]); err != nil {
					errs[g] = fmt.Errorf("reference for query %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// The distinct texts each round function can issue, for priming.
func scanTexts() []string {
	out := []string{q1SQL}
	for y := 1993; y <= 1998; y++ {
		out = append(out, q6Year(y))
	}
	return out
}

func shuffleTexts() []string { return []string{q12Exact, q1SQL} }

func serveTexts() []string {
	out := []string{q1SQL, q6Year(1994), q12Exact}
	for i := 0; i < variantsPerQuery; i++ {
		out = append(out, q6Variant(i).sql, q12Variant(i).sql)
	}
	return out
}

const floatTolerance = 1e-9

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= floatTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// sameChunk compares a distributed result with its reference: same schema
// and row order, integers and booleans exact, floats within floatTolerance.
func sameChunk(got, want *columnar.Chunk) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for j, w := range want.Columns {
		g := got.Columns[j]
		for i := 0; i < want.NumRows(); i++ {
			ok := true
			switch w.Type {
			case columnar.Int64:
				ok = g.Int64s[i] == w.Int64s[i]
			case columnar.Float64:
				ok = closeEnough(g.Float64s[i], w.Float64s[i])
			case columnar.Bool:
				ok = g.Bools[i] == w.Bools[i]
			}
			if !ok {
				return fmt.Errorf("row %d column %s differs from the single-node reference", i, want.Schema.Fields[j].Name)
			}
		}
	}
	return nil
}

// sameRows compares a service response's JSON rows with the reference.
func sameRows(rows [][]interface{}, want *columnar.Chunk) error {
	if len(rows) != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", len(rows), want.NumRows())
	}
	for i, row := range rows {
		if len(row) != len(want.Columns) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(row), len(want.Columns))
		}
		for j, w := range want.Columns {
			ok := false
			switch v := row[j].(type) {
			case float64:
				switch w.Type {
				case columnar.Int64:
					ok = v == float64(w.Int64s[i])
				case columnar.Float64:
					ok = closeEnough(v, w.Float64s[i])
				}
			case bool:
				ok = w.Type == columnar.Bool && v == w.Bools[i]
			}
			if !ok {
				return fmt.Errorf("row %d column %s differs from the single-node reference", i, want.Schema.Fields[j].Name)
			}
		}
	}
	return nil
}
