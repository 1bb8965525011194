package tpch

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/sqlfe"
)

func bytesReaderAt(b []byte) *bytes.Reader { return bytes.NewReader(b) }

func genSmall(t *testing.T) *columnar.Chunk {
	t.Helper()
	c := Gen{SF: 0.002, Seed: 1}.Generate() // ~12k rows
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDateEncoding(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Errorf("epoch = %d", Date(1992, 1, 1))
	}
	if Date(1992, 1, 2) != 1 {
		t.Errorf("epoch+1 = %d", Date(1992, 1, 2))
	}
	if got := Date(1993, 1, 1); got != 366 { // 1992 is a leap year
		t.Errorf("1993-01-01 = %d, want 366", got)
	}
	if Q1ShipDateCutoff != Date(1998, 9, 2) {
		t.Errorf("Q1 cutoff = %d, want %d", Q1ShipDateCutoff, Date(1998, 9, 2))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Gen{SF: 0.001, Seed: 42}.Generate()
	b := Gen{SF: 0.001, Seed: 42}.Generate()
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := 0; i < a.NumRows(); i++ {
		if a.Columns[10].Int64s[i] != b.Columns[10].Int64s[i] {
			t.Fatal("shipdates differ between identical-seed runs")
		}
	}
	c := Gen{SF: 0.001, Seed: 43}.Generate()
	same := true
	for i := 0; i < 100; i++ {
		if a.Columns[5].Float64s[i] != c.Columns[5].Float64s[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSortedByShipdate(t *testing.T) {
	c := genSmall(t)
	ship := c.Column("l_shipdate").Int64s
	if !sort.SliceIsSorted(ship, func(i, j int) bool { return ship[i] < ship[j] }) {
		t.Error("relation not sorted by l_shipdate")
	}
}

func TestValueRanges(t *testing.T) {
	c := genSmall(t)
	for i := 0; i < c.NumRows(); i++ {
		if q := c.Column("l_quantity").Float64s[i]; q < 1 || q > 50 {
			t.Fatalf("quantity %v out of [1,50]", q)
		}
		if d := c.Column("l_discount").Float64s[i]; d < 0 || d > 0.10001 {
			t.Fatalf("discount %v out of [0,0.1]", d)
		}
		if x := c.Column("l_tax").Float64s[i]; x < 0 || x > 0.08001 {
			t.Fatalf("tax %v out of [0,0.08]", x)
		}
		rf := c.Column("l_returnflag").Int64s[i]
		if rf != ReturnFlagR && rf != ReturnFlagA && rf != ReturnFlagN {
			t.Fatalf("returnflag %d invalid", rf)
		}
		ls := c.Column("l_linestatus").Int64s[i]
		if ls != LineStatusO && ls != LineStatusF {
			t.Fatalf("linestatus %d invalid", ls)
		}
		ship := c.Column("l_shipdate").Int64s[i]
		receipt := c.Column("l_receiptdate").Int64s[i]
		if receipt <= ship {
			t.Fatalf("receipt %d <= ship %d", receipt, ship)
		}
	}
}

func TestReturnFlagConsistentWithReceiptDate(t *testing.T) {
	c := genSmall(t)
	receipt := c.Column("l_receiptdate").Int64s
	rflag := c.Column("l_returnflag").Int64s
	for i := range receipt {
		if receipt[i] <= CurrentDate && rflag[i] == ReturnFlagN {
			t.Fatal("past receipt marked N")
		}
		if receipt[i] > CurrentDate && rflag[i] != ReturnFlagN {
			t.Fatal("future receipt not marked N")
		}
	}
}

// selectivity is the share of c's rows that query's WHERE clause keeps,
// counted by the engine: SELECT COUNT(*) FROM lineitem WHERE ….
func selectivity(t *testing.T, c *columnar.Chunk, query string) float64 {
	t.Helper()
	where := query[strings.Index(query, "WHERE"):]
	if i := strings.Index(where, "GROUP BY"); i >= 0 {
		where = where[:i]
	}
	plan, err := sqlfe.Parse("SELECT COUNT(*) AS n FROM lineitem " + where)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Execute(plan, engine.Catalog{"lineitem": engine.NewMemSource(Schema(), c)})
	if err != nil {
		t.Fatal(err)
	}
	return float64(out.Column("n").Int64s[0]) / float64(c.NumRows())
}

func TestPaperSelectivities(t *testing.T) {
	// §5.3: Q1 selects ~98 %, Q6 ~2 %.
	c := Gen{SF: 0.01, Seed: 7}.Generate() // ~60k rows
	q1, q6 := selectivity(t, c, Q1SQL), selectivity(t, c, Q6SQL)
	if q1 < 0.95 || q1 > 0.995 {
		t.Errorf("Q1 selectivity = %.3f, want ~0.98", q1)
	}
	if q6 < 0.01 || q6 > 0.035 {
		t.Errorf("Q6 selectivity = %.3f, want ~0.02", q6)
	}
}

func TestQ1ReferenceProperties(t *testing.T) {
	c := genSmall(t)
	rows := Q1Reference(c)
	if len(rows) != 4 {
		// Groups: (R,F), (A,F), (N,F), (N,O) — N pairs only with O except
		// the boundary window; dbgen yields exactly 4 groups.
		t.Fatalf("Q1 produced %d groups, want 4", len(rows))
	}
	var total int64
	for _, r := range rows {
		total += r.Count
		if r.AvgQty < 1 || r.AvgQty > 50 {
			t.Errorf("avg qty %v out of range", r.AvgQty)
		}
		if math.Abs(r.AvgQty-r.SumQty/float64(r.Count)) > 1e-9 {
			t.Error("avg inconsistent with sum/count")
		}
		if r.SumDiscPrice > r.SumBasePrice {
			t.Error("discounted price exceeds base price")
		}
		if r.SumCharge < r.SumDiscPrice {
			t.Error("charge below discounted price")
		}
	}
	if got, q1 := float64(total)/float64(c.NumRows()), selectivity(t, c, Q1SQL); math.Abs(got-q1) > 1e-9 {
		t.Errorf("Q1 row total %.4f != selectivity %.4f", got, q1)
	}
	if !sort.SliceIsSorted(rows, func(i, j int) bool {
		if rows[i].ReturnFlag != rows[j].ReturnFlag {
			return rows[i].ReturnFlag < rows[j].ReturnFlag
		}
		return rows[i].LineStatus < rows[j].LineStatus
	}) {
		t.Error("Q1 rows not sorted")
	}
}

func TestQ1PartialMergeEqualsWhole(t *testing.T) {
	// The partial state carries across files: the aggregate of the
	// per-file chunks equals the aggregate of the relation.
	c := genSmall(t)
	whole := Q1Partial(c)
	merged := Q1Partial(c.Split(7)...)
	if len(merged) != len(whole) {
		t.Fatalf("group counts differ: %d vs %d", len(merged), len(whole))
	}
	for k, w := range whole {
		m := merged[k]
		if m.Count != w.Count || math.Abs(m.SumCharge-w.SumCharge) > 1e-6*math.Abs(w.SumCharge) {
			t.Errorf("group %+v: merged %+v != whole %+v", k, m, w)
		}
	}
}

func TestQ6PartialSumEqualsWhole(t *testing.T) {
	c := genSmall(t)
	whole := Q6Reference(c)
	if whole <= 0 {
		t.Fatal("Q6 result not positive")
	}
	var parts float64
	for _, f := range c.Split(5) {
		parts += Q6Reference(f)
	}
	if math.Abs(parts-whole) > 1e-6*whole {
		t.Errorf("split sum %v != whole %v", parts, whole)
	}
}

func TestSplitFilesCoversExactly(t *testing.T) {
	c := genSmall(t)
	files := c.Split(9)
	var rows int
	for _, f := range files {
		rows += f.NumRows()
	}
	if rows != c.NumRows() {
		t.Errorf("split rows = %d, want %d", rows, c.NumRows())
	}
	if len(files) != 9 {
		t.Errorf("files = %d", len(files))
	}
	// Degenerate cases.
	if got := c.Split(0); len(got) != 1 {
		t.Error("nfiles=0 should yield one file")
	}
	if got := c.Slice(0, 0).Split(4); len(got) != 1 || got[0].NumRows() != 0 {
		t.Error("an empty relation should yield one empty file")
	}
}

func TestShipdateSortednessEnablesPruning(t *testing.T) {
	// Because the relation is sorted by shipdate, most files fall entirely
	// outside Q6's one-year window — that is the mechanism behind the 80 %
	// of workers that return immediately in Figure 11.
	c := Gen{SF: 0.01, Seed: 3}.Generate()
	files := c.Split(32)
	pruned := 0
	for _, f := range files {
		data, err := lpq.WriteFile(Schema(), lpq.WriterOptions{}, f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := lpq.OpenReader(bytesReaderAt(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		keep := lpq.PruneRowGroups(r.Meta(), []lpq.Predicate{{
			Column: "l_shipdate", Min: float64(Q6ShipDateLo), Max: float64(Q6ShipDateHi - 1),
		}})
		if len(keep) == 0 {
			pruned++
		}
	}
	frac := float64(pruned) / float64(len(files))
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("pruned fraction = %.2f, want ~0.8 (Figure 11)", frac)
	}
}

func TestOrdersForReferentialIntegrity(t *testing.T) {
	g := Gen{SF: 0.001, Seed: 42}
	li := g.Generate()
	orders := g.OrdersFor(li)
	keys := map[int64]bool{}
	prev := int64(0)
	okeys := orders.Column("o_orderkey").Int64s
	for _, k := range okeys {
		if k != prev+1 {
			t.Fatalf("order keys not dense: %d after %d", k, prev)
		}
		prev = k
		keys[k] = true
	}
	for _, k := range li.Column("l_orderkey").Int64s {
		if !keys[k] {
			t.Fatalf("lineitem references missing order %d", k)
		}
	}
	for _, p := range orders.Column("o_orderpriority").Int64s {
		if p < 0 || p > 4 {
			t.Fatalf("priority %d out of range", p)
		}
	}
	// Deterministic in the seed.
	again := g.OrdersFor(li)
	for i := range okeys {
		if again.Column("o_custkey").Int64s[i] != orders.Column("o_custkey").Int64s[i] {
			t.Fatal("OrdersFor not deterministic")
		}
	}
}

func TestQ12ReferenceProperties(t *testing.T) {
	g := Gen{SF: 0.002, Seed: 7}
	li := g.Generate()
	orders := g.OrdersFor(li)
	rows := Q12Reference(li, orders)
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("%d priority groups", len(rows))
	}
	var total int64
	for i, r := range rows {
		if i > 0 && rows[i-1].Priority >= r.Priority {
			t.Fatal("rows not sorted by priority")
		}
		if r.Count <= 0 || r.Total <= 0 {
			t.Fatalf("empty group %+v", r)
		}
		total += r.Count
	}
	// The late-lineitem filter selects a strict, non-trivial subset.
	if total <= 0 || total >= int64(li.NumRows()) {
		t.Fatalf("filter selected %d of %d rows", total, li.NumRows())
	}
}
