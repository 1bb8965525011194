package tpch

import (
	"fmt"
	"sort"

	"lambada/internal/columnar"
)

// Q1SQL is TPC-H Query 1 (pricing summary report) in the SQL surface sqlfe
// parses.
const Q1SQL = `
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

// Q6SQL is TPC-H Query 6 (forecasting revenue change).
const Q6SQL = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`

// JoinSQL is the canonical broadcast-join shape: LINEITEM (big, on S3)
// INNER JOIN SUPPLIER (small, shipped from the driver), revenue per nation.
const JoinSQL = `
SELECT s_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem INNER JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
GROUP BY s_nationkey
ORDER BY s_nationkey`

// Q12SQL is the TPC-H Query 12-shaped two-large-sides join: LINEITEM
// INNER JOIN ORDERS, late lineitems per order priority. The stage
// planner shuffles both sides through S3 (neither fits a broadcast at
// scale) unless ORDERS is handed over as a driver-resident table.
const Q12SQL = `
SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
  AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority
ORDER BY o_orderpriority`

// Q1Row is one output group of TPC-H Query 1.
type Q1Row struct {
	ReturnFlag, LineStatus    int64
	SumQty, SumBasePrice      float64
	SumDiscPrice, SumCharge   float64
	AvgQty, AvgPrice, AvgDisc float64
	Count                     int64
}

// Q1Agg is the partial aggregate state for one Query 1 group; partial states
// from distributed workers merge exactly.
type Q1Agg struct {
	SumQty, SumBase, SumDisc, SumCharge, SumDiscount float64
	Count                                            int64
}

// Merge folds other into a.
func (a *Q1Agg) Merge(other Q1Agg) {
	a.SumQty += other.SumQty
	a.SumBase += other.SumBase
	a.SumDisc += other.SumDisc
	a.SumCharge += other.SumCharge
	a.SumDiscount += other.SumDiscount
	a.Count += other.Count
}

// Q1GroupKey identifies one Query 1 group.
type Q1GroupKey struct{ ReturnFlag, LineStatus int64 }

// Q1Partial computes per-group partial aggregates of Query 1 over chunks:
//
//	SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice),
//	       SUM(l_extendedprice*(1-l_discount)),
//	       SUM(l_extendedprice*(1-l_discount)*(1+l_tax)),
//	       AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
//	FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - 90 DAY
//	GROUP BY l_returnflag, l_linestatus
func Q1Partial(chunks ...*columnar.Chunk) map[Q1GroupKey]Q1Agg {
	out := make(map[Q1GroupKey]Q1Agg)
	for _, c := range chunks {
		ship := c.Column("l_shipdate").Int64s
		qty := c.Column("l_quantity").Float64s
		price := c.Column("l_extendedprice").Float64s
		disc := c.Column("l_discount").Float64s
		tax := c.Column("l_tax").Float64s
		rflag := c.Column("l_returnflag").Int64s
		lstatus := c.Column("l_linestatus").Int64s
		for i := range ship {
			if ship[i] > Q1ShipDateCutoff {
				continue
			}
			k := Q1GroupKey{ReturnFlag: rflag[i], LineStatus: lstatus[i]}
			a := out[k]
			a.SumQty += qty[i]
			a.SumBase += price[i]
			dp := price[i] * (1 - disc[i])
			a.SumDisc += dp
			a.SumCharge += dp * (1 + tax[i])
			a.SumDiscount += disc[i]
			a.Count++
			out[k] = a
		}
	}
	return out
}

// Q1Finalize turns merged partials into sorted result rows.
func Q1Finalize(partials map[Q1GroupKey]Q1Agg) []Q1Row {
	rows := make([]Q1Row, 0, len(partials))
	for k, a := range partials {
		if a.Count == 0 {
			continue
		}
		rows = append(rows, Q1Row{
			ReturnFlag:   k.ReturnFlag,
			LineStatus:   k.LineStatus,
			SumQty:       a.SumQty,
			SumBasePrice: a.SumBase,
			SumDiscPrice: a.SumDisc,
			SumCharge:    a.SumCharge,
			AvgQty:       a.SumQty / float64(a.Count),
			AvgPrice:     a.SumBase / float64(a.Count),
			AvgDisc:      a.SumDiscount / float64(a.Count),
			Count:        a.Count,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ReturnFlag != rows[j].ReturnFlag {
			return rows[i].ReturnFlag < rows[j].ReturnFlag
		}
		return rows[i].LineStatus < rows[j].LineStatus
	})
	return rows
}

// Q1Reference computes the full Query 1 result.
func Q1Reference(chunks ...*columnar.Chunk) []Q1Row {
	return Q1Finalize(Q1Partial(chunks...))
}

// Q6Reference computes TPC-H Query 6:
//
//	SELECT SUM(l_extendedprice * l_discount) FROM lineitem
//	WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
//	  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
func Q6Reference(chunks ...*columnar.Chunk) float64 {
	var sum float64
	for _, c := range chunks {
		ship := c.Column("l_shipdate").Int64s
		qty := c.Column("l_quantity").Float64s
		price := c.Column("l_extendedprice").Float64s
		disc := c.Column("l_discount").Float64s
		for i := range ship {
			if ship[i] >= Q6ShipDateLo && ship[i] < Q6ShipDateHi &&
				disc[i] >= 0.0499999 && disc[i] <= 0.0700001 && qty[i] < 24 {
				sum += price[i] * disc[i]
			}
		}
	}
	return sum
}

// Q12Row is one output group of the Query 12-shaped join query.
type Q12Row struct {
	Priority int64
	Count    int64
	Total    float64
}

// Q12ReceiptDateLo and Q12ReceiptDateHi bound the receipt-date year
// [1995-01-01, 1996-01-01) of the Q12-shaped query.
var (
	Q12ReceiptDateLo = Date(1995, 1, 1)
	Q12ReceiptDateHi = Date(1996, 1, 1)
)

// Q12Reference computes the TPC-H Query 12-shaped join — LINEITEM joined
// with ORDERS on the order key, late lineitems grouped by order priority:
//
//	SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice)
//	FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
//	WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1996-01-01'
//	  AND l_commitdate < l_receiptdate
//	GROUP BY o_orderpriority ORDER BY o_orderpriority
//
// Both sides are large (LINEITEM ~6M×SF rows, ORDERS ~1.5M×SF rows), which
// makes this the reference workload for the shuffle-join path: neither
// side fits a driver broadcast at scale.
func Q12Reference(lineitem, orders *columnar.Chunk) []Q12Row {
	prio := map[int64]int64{}
	okeys := orders.Column("o_orderkey").Int64s
	oprio := orders.Column("o_orderpriority").Int64s
	for i := range okeys {
		prio[okeys[i]] = oprio[i]
	}
	counts := map[int64]int64{}
	totals := map[int64]float64{}
	lkeys := lineitem.Column("l_orderkey").Int64s
	receipt := lineitem.Column("l_receiptdate").Int64s
	commit := lineitem.Column("l_commitdate").Int64s
	price := lineitem.Column("l_extendedprice").Float64s
	for i := range lkeys {
		if receipt[i] < Q12ReceiptDateLo || receipt[i] >= Q12ReceiptDateHi || commit[i] >= receipt[i] {
			continue
		}
		p, ok := prio[lkeys[i]]
		if !ok {
			continue
		}
		counts[p]++
		totals[p] += price[i]
	}
	rows := make([]Q12Row, 0, len(counts))
	for p, n := range counts {
		rows = append(rows, Q12Row{Priority: p, Count: n, Total: totals[p]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Priority < rows[j].Priority })
	return rows
}

// Selectivity returns the fraction of rows passing the Q1 and Q6 filters —
// §5.3 reports ~98 % for Q1 and ~2 % for Q6.
func Selectivity(c *columnar.Chunk) (q1, q6 float64) {
	ship := c.Column("l_shipdate").Int64s
	qty := c.Column("l_quantity").Float64s
	disc := c.Column("l_discount").Float64s
	var n1, n6 int
	for i := range ship {
		if ship[i] <= Q1ShipDateCutoff {
			n1++
		}
		if ship[i] >= Q6ShipDateLo && ship[i] < Q6ShipDateHi &&
			disc[i] >= 0.0499999 && disc[i] <= 0.0700001 && qty[i] < 24 {
			n6++
		}
	}
	total := float64(len(ship))
	return float64(n1) / total, float64(n6) / total
}

// FormatQ1 renders Query 1 rows like the TPC-H answer set.
func FormatQ1(rows []Q1Row) string {
	s := "l_returnflag | l_linestatus | sum_qty | sum_base_price | sum_disc_price | sum_charge | count\n"
	for _, r := range rows {
		s += fmt.Sprintf("%12d | %12d | %7.0f | %14.2f | %14.2f | %10.2f | %5d\n",
			r.ReturnFlag, r.LineStatus, r.SumQty, r.SumBasePrice, r.SumDiscPrice, r.SumCharge, r.Count)
	}
	return s
}
