package driver

import (
	"testing"

	"lambada/internal/lpq"
)

// nationRevenue joins LINEITEM (big, on S3) with SUPPLIER (small, broadcast)
// and aggregates revenue per nation.
func nationRevenue() sqlQuery {
	q := groupBy("s_nationkey", agg("SUM(l_extendedprice * (1 - l_discount))", "revenue"), agg("COUNT(*)", "n"))
	q.Joins = []sqlJoin{{"supplier", "lineitem.l_suppkey = supplier.s_suppkey"}}
	return q
}

// SUPPLIER over three files on S3, loaded whole by the driver and shipped in
// every payload: the fleet is the lineitem scan's, one worker per file.
func TestBroadcastJoinEndToEnd(t *testing.T) {
	c := planCase{Q: nationRevenue(), Tol: 1e-9, Layout: localLayout, Goroutines: true}
	c.Layout.Supp = 3
	runCase(t, c, wantWorkers(8), wantStages(1))
}

func TestBroadcastJoinDESDeterministic(t *testing.T) {
	l := layout{Data: 61, LI: 6, Supp: 1, Opts: lpq.WriterOptions{RowGroupRows: 2000}}
	runCase(t, planCase{Q: nationRevenue(), Tol: 1e-9, Layout: l}, wantStages(1))
}

// SUPPLIER in one file on S3, which the planner broadcasts by its footer row
// count.
func TestSQLJoinEndToEnd(t *testing.T) {
	c := planCase{Q: nationRevenue(), Tol: 1e-9, Layout: localLayout, Goroutines: true}
	c.Layout.Supp = 1
	runCase(t, c, wantWorkers(8), wantStages(1))
}

// The plan joins a table nobody registered: refused at driver-side planning,
// before any invocation.
func TestBroadcastMissingTableFails(t *testing.T) {
	c := planCase{Q: nationRevenue(), Layout: localLayout, Unregistered: "supplier", Refused: true, Goroutines: true}
	c.Layout.Supp = 1
	runCase(t, c)
}

// ORDERS filtered and LINEITEM under the broadcast limit: the planner swaps
// the sides to build on LINEITEM, and the join must still expose what it
// does on a single node — l_orderkey, which the build side's key became —
// not o_orderkey.
func TestBroadcastSwapKeepsColumns(t *testing.T) {
	q := sqlQuery{Items: []selItem{agg("MIN(l_linenumber - l_orderkey)", "m"), agg("COUNT(*)", "n")}, From: "lineitem",
		Joins: []sqlJoin{{"orders", "lineitem.l_orderkey = orders.o_orderkey"}}, Where: []string{"o_orderpriority < 3"}}
	runCase(t, planCase{Q: q, Layout: layout{Data: 5, LI: 2, Ord: 3, Opts: stdLayout.Opts}, Default: true}, wantStages(1))
}
