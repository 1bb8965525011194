package driver

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/lpq"
)

// sqlQuery is a query of the SQL surface the generator draws from — select,
// inner joins, conjunctive WHERE, GROUP BY, ORDER BY, LIMIT — kept in parts,
// so that a failing case shrinks part by part.
type sqlQuery struct {
	Items   []selItem
	From    string
	Joins   []sqlJoin
	Where   []string
	GroupBy []string
	OrderBy []string
	Limit   int
}

type selItem struct {
	Expr, As string
	Agg      bool
}

func (it selItem) name() string {
	if it.As != "" {
		return it.As
	}
	return it.Expr
}

type sqlJoin struct{ Table, On string }

func (q sqlQuery) SQL() string {
	items := make([]string, len(q.Items))
	for i, it := range q.Items {
		items[i] = it.Expr
		if it.As != "" {
			items[i] += " AS " + it.As
		}
	}
	s := "SELECT " + strings.Join(items, ", ") + " FROM " + q.From
	for _, j := range q.Joins {
		s += " INNER JOIN " + j.Table + " ON " + j.On
	}
	if len(q.Where) > 0 {
		s += " WHERE " + strings.Join(q.Where, " AND ")
	}
	if len(q.GroupBy) > 0 {
		s += " GROUP BY " + strings.Join(q.GroupBy, ", ")
	}
	if len(q.OrderBy) > 0 {
		s += " ORDER BY " + strings.Join(q.OrderBy, ", ")
	}
	if q.Limit > 0 {
		s += fmt.Sprintf(" LIMIT %d", q.Limit)
	}
	return s
}

func (q sqlQuery) clone() sqlQuery {
	q.Items, q.Joins, q.Where = slices.Clone(q.Items), slices.Clone(q.Joins), slices.Clone(q.Where)
	q.GroupBy, q.OrderBy = slices.Clone(q.GroupBy), slices.Clone(q.OrderBy)
	return q
}

// The hand-picked queries: TPC-H Q1 and Q6, and Q12's two-large-sides join
// — with Q12's float revenue, with integer-exact aggregates only, and grouped
// on l_partkey, whose 200 000-value footer range bounds nothing, so that its
// aggregate repartitions where the five priorities merge on the driver.
func q1() sqlQuery {
	return sqlQuery{
		Items: []selItem{{Expr: "l_returnflag"}, {Expr: "l_linestatus"},
			{"SUM(l_quantity)", "sum_qty", true}, {"SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))", "sum_charge", true},
			{"AVG(l_discount)", "avg_disc", true}, {"COUNT(*)", "count_order", true}},
		From:    "lineitem",
		Where:   []string{"l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY"},
		GroupBy: []string{"l_returnflag", "l_linestatus"},
		OrderBy: []string{"l_returnflag", "l_linestatus"},
	}
}

func q6() sqlQuery {
	return sqlQuery{
		Items: []selItem{{"SUM(l_extendedprice * l_discount)", "revenue", true}},
		From:  "lineitem",
		Where: []string{"l_shipdate >= DATE '1994-01-01'", "l_shipdate < DATE '1995-01-01'",
			"l_discount BETWEEN 0.0499999 AND 0.0700001", "l_quantity < 24"},
	}
}

func q12(key string, aggs ...selItem) sqlQuery {
	return sqlQuery{
		Items: append([]selItem{{Expr: key}}, aggs...),
		From:  "lineitem",
		Joins: []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}},
		Where: []string{"l_receiptdate >= DATE '1995-01-01'", "l_receiptdate < DATE '1996-01-01'",
			"l_commitdate < l_receiptdate"},
		GroupBy: []string{key},
		OrderBy: []string{key},
	}
}

// groupBy aggregates LINEITEM by key.
func groupBy(key string, aggs ...selItem) sqlQuery {
	return sqlQuery{Items: append([]selItem{{Expr: key}}, aggs...), From: "lineitem", GroupBy: []string{key}, OrderBy: []string{key}}
}

func agg(expr, as string) selItem { return selItem{expr, as, true} }

var q12ExactAggs = []selItem{{"COUNT(*)", "n", true}, {"SUM(l_linenumber)", "lines", true},
	{"MIN(l_shipdate)", "first_ship", true}, {"MAX(l_shipdate)", "last_ship", true}}

func q12Exact() sqlQuery  { return q12("o_orderpriority", q12ExactAggs...) }
func q12ByPart() sqlQuery { return q12("l_partkey", q12ExactAggs...) }
func q12Revenue() sqlQuery {
	return q12("o_orderpriority", selItem{"COUNT(*)", "n", true}, selItem{"SUM(l_extendedprice)", "total", true})
}

var (
	q1SQL        = q1().SQL()
	q6SQL        = q6().SQL()
	q12ExactSQL  = q12Exact().SQL()
	q12ByPartSQL = q12ByPart().SQL()
)

// colType is the type of a generated expression.
type colType int

const (
	tInt colType = iota
	tFloat
	tBool
)

// column is a TPC-H column the generator refers to, with the range of its
// SF 0.002 values its literals are drawn from (a float's in hundredths); a
// date's literals are written as DATE.
type column struct {
	name   string
	typ    colType
	lo, hi int64
	date   bool
}

var genColumns = map[string][]column{
	"lineitem": {
		{"l_orderkey", tInt, 1, 3000, false}, {"l_partkey", tInt, 1, 200000, false},
		{"l_suppkey", tInt, 1, 20, false}, {"l_linenumber", tInt, 1, 7, false},
		{"l_quantity", tFloat, 100, 5000, false}, {"l_extendedprice", tFloat, 90000, 10500000, false},
		{"l_discount", tFloat, 0, 10, false}, {"l_tax", tFloat, 0, 8, false},
		{"l_returnflag", tInt, 0, 2, false}, {"l_linestatus", tInt, 0, 1, false},
		{"l_shipdate", tInt, 0, 2520, true}, {"l_commitdate", tInt, 30, 2520, true}, {"l_receiptdate", tInt, 0, 2550, true},
	},
	"orders": {
		{"o_orderkey", tInt, 1, 3000, false}, {"o_custkey", tInt, 1, 300, false},
		{"o_orderpriority", tInt, 0, 4, false}, {"o_totalprice", tFloat, 85771, 50085771, false},
		{"o_orderdate", tInt, 0, 2405, true},
	},
	"supplier": {
		{"s_suppkey", tInt, 1, 20, false}, {"s_nationkey", tInt, 0, 24, false}, {"s_acctbal", tFloat, 0, 1000000, false},
	},
}

// fnSpec is one operator of the generated SQL: its template, one %s per
// input, keyed by input and output types. An expression of a type is a
// column or literal of it, or an operator with that output over expressions
// of its inputs — type-correct by construction.
type fnSpec struct {
	SQL    string
	Inputs []colType
	Output colType
}

var fnSpecs = []fnSpec{
	{"(%s + %s)", []colType{tInt, tInt}, tInt},
	{"(%s - %s)", []colType{tInt, tInt}, tInt},
	{"(%s * %s)", []colType{tInt, tInt}, tInt},
	{"(%s + %s)", []colType{tFloat, tFloat}, tFloat},
	{"(%s * %s)", []colType{tFloat, tFloat}, tFloat},
	{"(%s < %s)", []colType{tInt, tInt}, tBool},
	{"(%s >= %s)", []colType{tInt, tInt}, tBool},
	{"(%s = %s)", []colType{tInt, tInt}, tBool},
	{"(%s <> %s)", []colType{tInt, tInt}, tBool},
	{"(%s < %s)", []colType{tFloat, tFloat}, tBool},
	{"(%s BETWEEN %s AND %s)", []colType{tInt, tInt, tInt}, tBool},
	{"(%s AND %s)", []colType{tBool, tBool}, tBool},
	{"(%s OR %s)", []colType{tBool, tBool}, tBool},
	{"(NOT %s)", []colType{tBool}, tBool},
}

// gen draws one query over the columns in scope: LINEITEM's, and those of
// every table joined to it but the ones its join condition names, which the
// join drops (they duplicate LINEITEM's keys).
type gen struct {
	rng   *rand.Rand
	scope []column
}

func (g *gen) cols(t colType) []column {
	var out []column
	for _, c := range g.scope {
		if c.typ == t {
			out = append(out, c)
		}
	}
	return out
}

func (g *gen) pick(cols []column) column { return cols[g.rng.Intn(len(cols))] }

// literal draws a value of c's range, written as c's type.
func (g *gen) literal(c column) string {
	v := c.lo + g.rng.Int63n(c.hi-c.lo+1)
	switch {
	case c.date:
		return "DATE '" + time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(v)).Format("2006-01-02") + "'"
	case c.typ == tFloat:
		return fmt.Sprintf("%d.%02d", v/100, v%100)
	}
	return fmt.Sprint(v)
}

// expr draws an expression of type t at most depth operators deep.
func (g *gen) expr(t colType, depth int) string {
	if t != tBool && (depth == 0 || g.rng.Intn(3) > 0) {
		c := g.pick(g.cols(t))
		if g.rng.Intn(4) > 0 {
			return c.name
		}
		return g.literal(c)
	}
	var specs []fnSpec
	for _, s := range fnSpecs {
		if s.Output == t && (depth > 0 || !slices.Contains(s.Inputs, tBool)) {
			specs = append(specs, s)
		}
	}
	s := specs[g.rng.Intn(len(specs))]
	args := make([]any, len(s.Inputs))
	for i, in := range s.Inputs {
		args[i] = g.expr(in, max(depth-1, 0))
	}
	return fmt.Sprintf(s.SQL, args...)
}

// rangeFilter draws a range predicate over at least a third of a column's
// values.
func (g *gen) rangeFilter() string {
	c := g.pick(append(g.cols(tInt), g.cols(tFloat)...))
	span := c.hi - c.lo + 1
	lo := c.lo + g.rng.Int63n(span*2/3+1)
	hi := min(lo+span/3+g.rng.Int63n(span), c.hi)
	a, b := c, c
	a.lo, a.hi, b.lo, b.hi = lo, lo, hi, hi
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%s BETWEEN %s AND %s", c.name, g.literal(a), g.literal(b))
	}
	return fmt.Sprintf("%s >= %s AND %s < %s", c.name, g.literal(a), c.name, g.literal(b))
}

// aggregate draws an integer-exact aggregate: COUNT, SUM over integers, MIN
// or MAX over anything — no float sum, whose value depends on merge order.
func (g *gen) aggregate(i int) selItem {
	it := selItem{As: fmt.Sprintf("a%d", i), Agg: true}
	switch n := g.rng.Intn(4); {
	case n == 0:
		it.Expr = "COUNT(*)"
	case n == 1:
		it.Expr = "SUM(" + g.expr(tInt, 1) + ")"
	default:
		fn, t := []string{"MIN", "MAX"}[g.rng.Intn(2)], []colType{tInt, tFloat}[g.rng.Intn(2)]
		it.Expr = fn + "(" + g.expr(t, 1) + ")"
	}
	return it
}

// TestGeneratedPlans runs genSeeds seeds: the plain ones, which cover every
// shape kind genCase cycles through at least twice, then each recovery
// scenario once.
const genPlainSeeds, genSeeds = 26, 31

// genCase draws the case of a seed. Seeds 1–3
// are TPC-H Q1, Q6 and Q12's revenue join, with a float tolerance. From seed
// 4 on, the seed picks one of eight kinds — an aggregate over LINEITEM at the
// default configuration, one grouped on l_partkey over two-level boundaries,
// a shuffled LINEITEM ⋈ ORDERS aggregate, a bare shuffle join ordered on
// every column, a join the planner broadcasts, one with ORDERS or SUPPLIER
// that the footers and filters decide, two joins, and a faulted run of any
// of these — and draws its query and configuration. From seed 27 on a case
// also runs a recovery scenario on the DES kernel, the seed taking them in
// turn: a straggler, the leftovers of an aborted run, concurrent peers, a
// stalled fleet, and a stalled fleet behind the admission cap.
func genCase(seed int64) planCase {
	c := planCase{Seed: seed, Layout: layout{Data: seed, LI: 4, Ord: 2, Supp: 1, Opts: lpq.WriterOptions{RowGroupRows: 2000}}}
	switch seed {
	case 1, 2:
		c.Q, c.Tol, c.Default = map[int64]sqlQuery{1: q1(), 2: q6()}[seed], 1e-9, true
		return c
	case 3:
		c.Q, c.Tol, c.Partitions, c.BroadcastRowLimit = q12Revenue(), 1e-9, 2, -1
		return c
	}
	rng := rand.New(rand.NewSource(seed))
	g := &gen{rng: rng, scope: slices.Clone(genColumns["lineitem"])}
	scenario := int64(-1)
	if seed > genPlainSeeds {
		scenario = (seed - genPlainSeeds - 1) % 5
	}
	kind := seed % 8
	switch {
	case scenario == 0 || scenario == 1 || scenario == 4:
		kind = 2 + seed%2 // a shuffle: an epoch fence, and a LINEITEM scan that publishes
	case scenario == 3:
		kind = seed % 7 // no faults: their backups would blur the stall's counts
	}
	if kind == 7 {
		kind = rng.Int63n(7)
		c.Speculate = true
		c.Faults = genFaults(rng)
	}
	c.Layout.LI, c.Layout.Ord, c.Layout.Supp = 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(2)
	if rng.Intn(2) == 0 {
		c.Layout.Opts.Compression = lpq.Gzip
	}
	c.Partitions, c.BroadcastRowLimit = rng.Intn(6), -1
	c.Basic = (seed/8)%2 == 1
	q := sqlQuery{From: "lineitem"}
	join := func(table, on string) {
		q.Joins = append(q.Joins, sqlJoin{table, on})
		for _, c := range genColumns[table] {
			if !strings.Contains(on, table+"."+c.name) {
				g.scope = append(g.scope, c)
			}
		}
	}
	supplierOn := "lineitem.l_suppkey = supplier.s_suppkey"
	if rng.Intn(4) == 0 {
		supplierOn = "lineitem.l_linenumber = supplier.s_nationkey" // many to many
	}
	ordersOn := "lineitem.l_orderkey = orders.o_orderkey"
	if rng.Intn(4) == 0 {
		ordersOn += " AND lineitem.l_returnflag = orders.o_orderpriority" // a composite key
	}
	bare := false
	switch kind {
	case 0:
		c.Default = true
	case 1:
		c.Levels = 2
	case 2:
		join("orders", ordersOn)
		c.Levels = rng.Intn(3)
	case 3:
		join("orders", ordersOn)
		bare = true
	case 4:
		join("supplier", supplierOn)
		c.BroadcastRowLimit = 0
	case 5:
		t, on := []string{"orders", "supplier"}[rng.Intn(2)], ordersOn
		if t == "supplier" {
			on = supplierOn
		}
		join(t, on)
		c.BroadcastRowLimit = 0
	case 6:
		join("orders", ordersOn)
		join("supplier", supplierOn)
		c.BroadcastRowLimit = []int64{-1, 0}[rng.Intn(2)]
	}

	// Conjuncts: a range, or a drawn predicate — but none on a side the
	// planner is meant to broadcast, which it broadcasts only unfiltered.
	for n := rng.Intn(3); n > 0; n-- {
		w := g.rangeFilter()
		if rng.Intn(3) == 0 {
			w = g.expr(tBool, 2)
		}
		if kind != 4 || !strings.Contains(w, "s_") {
			q.Where = append(q.Where, w)
		}
	}
	if bare {
		for _, col := range rng.Perm(len(g.cols(tInt)))[:2+rng.Intn(2)] {
			q.Items = append(q.Items, selItem{Expr: g.cols(tInt)[col].name})
		}
		if rng.Intn(2) == 0 {
			q.Items = append(q.Items, selItem{Expr: g.expr(tInt, 1), As: "e0"})
		}
		for _, it := range q.Items {
			q.OrderBy = append(q.OrderBy, it.name())
		}
	} else {
		keys := g.cols(tInt)
		for n := rng.Intn(3); n > 0; n-- {
			k := g.pick(keys).name
			if kind == 1 && len(q.GroupBy) == 0 {
				k = "l_partkey" // no footer bound: the aggregate repartitions
			}
			if !slices.Contains(q.GroupBy, k) {
				q.GroupBy = append(q.GroupBy, k)
				q.Items = append(q.Items, selItem{Expr: k})
			}
		}
		if kind == 1 && len(q.GroupBy) == 0 {
			q.GroupBy, q.Items = []string{"l_partkey"}, []selItem{{Expr: "l_partkey"}}
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			q.Items = append(q.Items, g.aggregate(i))
		}
		q.OrderBy = slices.Clone(q.GroupBy)
	}
	if rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(20)
	}
	c.Q = q

	if rng.Intn(4) == 0 {
		// Below the scan fleet: a consumer launches only once its producers
		// reported, when their first containers are settling, so a cap no
		// fleet reaches on its own would never bind.
		c.MaxInFlight = 1 + rng.Intn(max(c.Layout.LI-1, 1))
	}
	c.Goroutines = scenario < 0 && len(c.Faults.Rules) == 0 && rng.Intn(5) == 0
	if scenario < 0 && rng.Intn(12) == 0 {
		// A table nobody registered, or a column no table has — in an
		// aggregate or in WHERE.
		c.Refused = true
		switch {
		case len(q.Joins) > 0:
			c.Unregistered = q.Joins[0].Table
		case rng.Intn(2) == 0:
			c.Q.Where = append(slices.Clone(c.Q.Where), "l_no_such_column > 0")
		default:
			c.Q.Items = append(c.Q.Items, agg("SUM(l_no_such_column)", "bad"))
		}
	}

	// A stall runs past the 20 s liveness cap, and — but in the last
	// scenario — without an admission cap, under which the rest of a fleet
	// waits for the tokens its stalled workers hold.
	switch scenario {
	case 0: // a LINEITEM scan straggler, whose loser publishes after the query
		c.Speculate, c.MaxInFlight, c.Stall = true, 0, stall{stallOne, 1, 2 * time.Minute}
	case 3: // all (but one, every other turn) of the result stage, or of a shuffle's stage 1
		stage := 0
		if (kind >= 1 && kind <= 3 || kind == 6 && c.BroadcastRowLimit < 0) && rng.Intn(2) == 0 {
			stage = 1
		}
		c.Speculate, c.MaxInFlight, c.Stall = true, 0, stall{stalled(2 + seed/5%2), stage, 2 * time.Minute}
	case 1:
		c.Zombie = true
	case 2:
		c.Concurrent = 2 + rng.Intn(2)
	case 4: // the LINEITEM scan, each worker but the first backed up as the cap lets it launch
		c.Speculate, c.MaxInFlight, c.Stall = true, 1, stall{stallAll, 1, time.Minute}
	}
	return c
}

// genFaults draws a seeded fault plan: a few transient rules at low rates,
// and one invocation crash, which leaves a worker silent until speculation
// re-invokes it.
func genFaults(rng *rand.Rand) faults.Plan {
	storm := []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindTransient, Rate: 0.05},
		{Op: faults.OpS3Put, Kind: faults.KindTransient, Rate: 0.03},
		{Op: faults.OpS3Put, Kind: faults.KindSlowDown, Rate: 0.02},
		{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Rate: 0.2, Delay: 40 * time.Millisecond},
		{Op: faults.OpSQSReceive, Kind: faults.KindTimeout, Rate: 0.03},
		{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Rate: 0.05},
		{Op: faults.OpLambda, Kind: faults.KindColdSpike, Rate: 0.1, Delay: 300 * time.Millisecond},
	}
	var rules []faults.Rule
	for _, i := range rng.Perm(len(storm))[:1+rng.Intn(3)] {
		rules = append(rules, storm[i])
	}
	return faults.Plan{Seed: rng.Int63(), Rules: append(rules,
		faults.Rule{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: rng.Intn(3), Count: 1})}
}

// TestGeneratedPlans runs the generator's first genSeeds seeds through the
// harness, and requires every shape class among them: both merge arms, a
// bare shuffle join, both kinds of broadcast, 2l boundaries with and without
// write combining, a binding admission cap, a fault plan that made the
// scheduler relaunch or speculate, a straggler backed up, a stalled fleet the
// liveness cap re-invoked, one behind the admission cap, a fenced zombie and
// concurrent queries. A subtest's name carries its faults and scenario.
func TestGeneratedPlans(t *testing.T) {
	seen, ran := map[string]bool{}, 0
	for seed := int64(1); seed <= genSeeds; seed++ {
		c := genCase(seed)
		name := fmt.Sprintf("seed=%d", seed)
		for i, on := range []bool{len(c.Faults.Rules) > 0, c.Stall.Workers != 0, c.Zombie, c.Concurrent != 0} {
			if on {
				name += "-" + []string{"faults", "stall", "zombie", "concurrent"}[i]
			}
		}
		t.Run(name, func(t *testing.T) {
			ran++
			for _, s := range runCase(t, c) {
				seen[s] = true
			}
		})
	}
	if ran < genSeeds || t.Failed() {
		return
	}
	for _, class := range []string{"aggregate merged on the driver", "aggregate repartitioned", "bare shuffle join",
		"planner-chosen broadcast", "2l boundary", "2l-wc boundary", "admission cap",
		"faults relaunched or speculated", "goroutine workers", "refused", "straggler backed up",
		"stalled fleet re-invoked by the cap", "stall behind the admission cap", "zombie fenced", "concurrent queries"} {
		if !seen[class] {
			t.Errorf("no seed in 1..%d exercised: %s", genSeeds, class)
		}
	}
}

// FuzzGeneratedPlan runs any seed through the harness.
func FuzzGeneratedPlan(f *testing.F) {
	f.Add(int64(genSeeds + 1))
	f.Fuzz(func(t *testing.T, seed int64) {
		runCase(t, genCase(seed))
	})
}
