package sqlfe

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lambada/internal/engine"
	"lambada/internal/tpch"
)

// findJoin walks the plan (probe sides) for the first JoinPlan.
func findJoin(p engine.Plan) *engine.JoinPlan {
	for n := p; n != nil; n = n.Child() {
		if j, ok := n.(*engine.JoinPlan); ok {
			return j
		}
	}
	return nil
}

func TestParseInnerJoin(t *testing.T) {
	plan, err := Parse(`SELECT l_orderkey, s_name FROM lineitem INNER JOIN supplier ON l_suppkey = s_suppkey`)
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(plan)
	if j == nil {
		t.Fatalf("no JoinPlan in:\n%s", engine.Explain(plan))
	}
	if len(j.LeftKeys) != 1 || j.LeftKeys[0] != "l_suppkey" || j.RightKeys[0] != "s_suppkey" {
		t.Errorf("keys = %v / %v", j.LeftKeys, j.RightKeys)
	}
	right, ok := j.Right.(*engine.ScanPlan)
	if !ok || right.Table != "supplier" {
		t.Errorf("right side = %v", j.Right)
	}
}

func TestParseJoinQualifiedAndSwapped(t *testing.T) {
	// Qualified references decide the sides regardless of written order.
	plan, err := Parse(`SELECT l_orderkey FROM lineitem JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey`)
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(plan)
	if j == nil {
		t.Fatal("no join")
	}
	if j.LeftKeys[0] != "l_suppkey" || j.RightKeys[0] != "s_suppkey" {
		t.Errorf("sides not swapped by qualifiers: %v / %v", j.LeftKeys, j.RightKeys)
	}
}

func TestParseJoinMultiKey(t *testing.T) {
	plan, err := Parse(`SELECT k FROM a INNER JOIN b ON a.k = b.bk AND a.k2 = b.bk2`)
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(plan)
	if j == nil {
		t.Fatal("no join")
	}
	if len(j.LeftKeys) != 2 || j.LeftKeys[1] != "k2" || j.RightKeys[1] != "bk2" {
		t.Errorf("multi-key = %v / %v", j.LeftKeys, j.RightKeys)
	}
}

func TestParseJoinWithFullClauseSet(t *testing.T) {
	plan, err := Parse(`
SELECT s_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem INNER JOIN supplier ON l_suppkey = s_suppkey
WHERE l_quantity < 30
GROUP BY s_nationkey
ORDER BY s_nationkey
LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	explained := engine.Explain(plan)
	for _, want := range []string{"Limit 10", "OrderBy s_nationkey", "HashJoin l_suppkey = s_suppkey", "Scan lineitem"} {
		if !strings.Contains(explained, want) {
			t.Errorf("plan missing %q:\n%s", want, explained)
		}
	}
}

func TestParseJoinErrors(t *testing.T) {
	bad := []string{
		`SELECT k FROM a JOIN b`,                  // missing ON
		`SELECT k FROM a JOIN b ON a.k < b.k`,     // non-equality
		`SELECT k FROM a JOIN b ON c.k = b.k`,     // unknown qualifier
		`SELECT k FROM a JOIN b ON a.k = a.j`,     // one-sided condition
		`SELECT k FROM a JOIN b ON b.k = b.j`,     // one-sided (right)
		`SELECT k FROM a INNER b ON a.k = b.k`,    // INNER without JOIN
		`SELECT k FROM a JOIN b ON a.k = b.k AND`, // dangling AND
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestQ12SQLMatchesReference: the engine's answer to tpch.Q12SQL — parsed,
// optimized, hash-joined — equals tpch.Q12Reference, the join path's
// independent oracle, row for row.
func TestQ12SQLMatchesReference(t *testing.T) {
	plan, err := Parse(tpch.Q12SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 33} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			g := tpch.Gen{SF: 0.005, Seed: seed}
			li := g.Generate()
			orders := g.OrdersFor(li)
			cat := engine.Catalog{
				"lineitem": engine.NewMemSource(tpch.Schema(), li),
				"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
			}
			opt, err := engine.Optimize(plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			out, err := engine.Execute(opt, cat)
			if err != nil {
				t.Fatal(err)
			}
			ref := tpch.Q12Reference(li, orders)
			if out.NumRows() != len(ref) || len(ref) != 5 {
				t.Fatalf("rows = %d, reference %d; want 5 priorities", out.NumRows(), len(ref))
			}
			for i, r := range ref {
				prio, n, total := out.Column("o_orderpriority").Int64s[i], out.Column("n").Int64s[i], out.Column("total").Float64s[i]
				if prio != r.Priority || n != r.Count || math.Abs(total-r.Total) > 1e-9*r.Total {
					t.Errorf("row %d = (%d, %d, %v), reference %+v", i, prio, n, total, r)
				}
			}
		})
	}
}
