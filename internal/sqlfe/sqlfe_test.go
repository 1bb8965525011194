package sqlfe

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/tpch"
)

// Q1SQL is TPC-H Query 1 over the numeric schema.
const Q1SQL = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
`

// Q6SQL is TPC-H Query 6.
const Q6SQL = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24
`

func lineitemCat(t *testing.T) (engine.Catalog, *columnar.Chunk) {
	t.Helper()
	data := tpch.Gen{SF: 0.002, Seed: 21}.Generate()
	return engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)}, data
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t GROUP BY",
		"SELECT SUM(x FROM t",
		"SELECT x FROM t LIMIT abc",
		"SELECT x FROM t ORDER BY y", // y not in select list
		"SELECT x, SUM(y) FROM t",    // non-group-key non-aggregate
		"SELECT AVG(*) FROM t",
		"SELECT x FROM t WHERE x @ 3",
		"SELECT x FROM t WHERE s = 'unterminated",
		"SELECT x FROM t trailing",
		"SELECT x FROM t GROUP BY x", // group by without aggregates
		"SELECT x FROM t WHERE DATE 'nonsense' < 3",
		"SELECT x FROM t\xe9", // a Latin-1 letter is not a letter
		"SELECT x\xa0FROM t",  // nor a Latin-1 space a space
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseSimpleProjection(t *testing.T) {
	plan, err := Parse("SELECT a, a + b AS s FROM t WHERE a < 10 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	s := engine.Explain(plan)
	for _, want := range []string{"Limit 5", "Project", "Filter (a < 10)", "Scan t"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan missing %q:\n%s", want, s)
		}
	}
}

func TestDateLiteralArithmetic(t *testing.T) {
	plan, err := Parse("SELECT x FROM t WHERE x <= DATE '1998-12-01' - INTERVAL '90' DAY")
	if err != nil {
		t.Fatal(err)
	}
	s := engine.Explain(plan)
	want := tpch.Q1ShipDateCutoff
	if !strings.Contains(s, "(x <= "+itoa(want)+")") {
		t.Errorf("date arithmetic wrong:\n%s (want cutoff %d)", s, want)
	}
}

func itoa(v int64) string {
	return strings.TrimSpace(strings.Fields(engine.ConstInt(v).String())[0])
}

func TestQ1SQLMatchesReference(t *testing.T) {
	cat, data := lineitemCat(t)
	plan, err := Parse(Q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	ref := tpch.Q1Reference(data)
	if out.NumRows() != len(ref) {
		t.Fatalf("rows = %d, want %d", out.NumRows(), len(ref))
	}
	for i, r := range ref {
		if got := out.Column("sum_charge").Float64s[i]; math.Abs(got-r.SumCharge) > 1e-6*r.SumCharge {
			t.Errorf("row %d sum_charge = %v, want %v", i, got, r.SumCharge)
		}
		if got := out.Column("count_order").Int64s[i]; got != r.Count {
			t.Errorf("row %d count = %d, want %d", i, got, r.Count)
		}
		if got := out.Column("avg_disc").Float64s[i]; math.Abs(got-r.AvgDisc) > 1e-9 {
			t.Errorf("row %d avg_disc = %v, want %v", i, got, r.AvgDisc)
		}
	}
}

func TestQ6SQLMatchesReference(t *testing.T) {
	cat, data := lineitemCat(t)
	plan, err := Parse(Q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	if got := out.Column("revenue").Float64s[0]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", got, want)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 1)
	c.Columns[0].AppendInt64(10)
	cat := engine.Catalog{"t": engine.NewMemSource(schema, c)}
	// 2 + 3 * x = 32, not 50.
	plan, err := Parse("SELECT 2 + 3 * x AS y FROM t")
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Column("y").Int64s[0]; got != 32 {
		t.Errorf("2+3*10 = %d, want 32", got)
	}
	// Unary minus.
	plan, _ = Parse("SELECT -x AS y FROM t")
	out, _ = engine.Execute(plan, cat)
	if got := out.Column("y").Int64s[0]; got != -10 {
		t.Errorf("-x = %d", got)
	}
	// Parens override.
	plan, _ = Parse("SELECT (2 + 3) * x AS y FROM t")
	out, _ = engine.Execute(plan, cat)
	if got := out.Column("y").Int64s[0]; got != 50 {
		t.Errorf("(2+3)*10 = %d, want 50", got)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	plan, err := Parse("select x from t where x between 1 and 3 order by x desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 5)
	for _, v := range []int64{5, 3, 1, 2, 4} {
		c.Columns[0].AppendInt64(v)
	}
	out, err := engine.Execute(plan, engine.Catalog{"t": engine.NewMemSource(schema, c)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Column("x").Int64s, []int64{3, 2}) {
		t.Errorf("result = %v", out.Column("x").Int64s)
	}
}

func TestCommentsAndMinMax(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 4)
	for _, v := range []int64{4, 7, 2, 9} {
		c.Columns[0].AppendInt64(v)
	}
	plan, err := Parse("SELECT MIN(x) AS lo, MAX(x) AS hi, COUNT(*) AS n FROM t -- trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, engine.Catalog{"t": engine.NewMemSource(schema, c)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Column("lo").Int64s[0] != 2 || out.Column("hi").Int64s[0] != 9 || out.Column("n").Int64s[0] != 4 {
		t.Errorf("min/max/count = %v/%v/%v", out.Column("lo").Int64s, out.Column("hi").Int64s, out.Column("n").Int64s)
	}
}

// TestQualifiedColumnRefs: table-qualified references parse anywhere an
// expression or group key can appear (multi-table join queries read
// naturally); columns still resolve by their unique names.
func TestQualifiedColumnRefs(t *testing.T) {
	plan, err := Parse(`
SELECT orders.o_orderpriority, COUNT(*) AS n, SUM(lineitem.l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE lineitem.l_receiptdate >= 100 AND lineitem.l_commitdate < lineitem.l_receiptdate
GROUP BY orders.o_orderpriority
ORDER BY o_orderpriority`)
	if err != nil {
		t.Fatal(err)
	}
	var agg *engine.AggregatePlan
	for n := plan; n != nil; n = n.Child() {
		if a, ok := n.(*engine.AggregatePlan); ok {
			agg = a
		}
	}
	if agg == nil {
		t.Fatal("no aggregate in plan")
	}
	if len(agg.GroupBy) != 1 || agg.GroupBy[0] != "o_orderpriority" {
		t.Fatalf("group by = %v", agg.GroupBy)
	}
	if agg.Aggs[1].Arg.String() != "l_extendedprice" {
		t.Fatalf("sum arg = %v", agg.Aggs[1].Arg)
	}
}

// TestUnknownQualifierRejected: a qualifier naming a table that is not in
// the FROM/JOIN list is a query-text bug, not a resolvable reference.
func TestUnknownQualifierRejected(t *testing.T) {
	bad := []string{
		`SELECT SUM(nosuch.l_extendedprice) AS s FROM lineitem`,
		`SELECT COUNT(*) AS n FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey GROUP BY bogus.o_orderpriority`,
		`SELECT l_suppkey, COUNT(*) AS n FROM lineitem WHERE typo.l_quantity > 1 GROUP BY l_suppkey`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Errorf("accepted bad qualifier (err=%v): %s", err, sql)
		}
	}
}
