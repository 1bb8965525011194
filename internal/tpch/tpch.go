// Package tpch generates the TPC-H LINEITEM relation the way the paper's
// evaluation does (§5.1): dbgen modified to produce numbers instead of
// strings, the relation sorted by l_shipdate (to expose selection push-down
// effects), and higher scale factors produced by replicating files.
//
// It also provides reference implementations of TPC-H Query 1 and Query 6 —
// the two most scan-bound queries — used to validate the distributed engine
// and to reproduce Figures 10, 11 and 12.
package tpch

import (
	"math/rand"
	"sort"
	"time"

	"lambada/internal/columnar"
)

// RowsPerSF is the LINEITEM cardinality at scale factor 1 (dbgen exact).
const RowsPerSF = 6_001_215

// Column codes replacing dbgen strings (the paper's modified dbgen
// "generates numbers instead of strings").
const (
	ReturnFlagR = int64(0) // 'R'
	ReturnFlagA = int64(1) // 'A'
	ReturnFlagN = int64(2) // 'N'

	LineStatusO = int64(0) // 'O'
	LineStatusF = int64(1) // 'F'
)

// epoch is day zero of the date encoding.
var epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// Date encodes a calendar date as days since 1992-01-01.
func Date(year, month, day int) int64 {
	d := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int64(d.Sub(epoch).Hours() / 24)
}

// Well-known predicate constants.
var (
	// Q1ShipDateCutoff is DATE '1998-12-01' - INTERVAL '90' DAY.
	Q1ShipDateCutoff = Date(1998, 12, 1) - 90
	// Q6ShipDateLo and Q6ShipDateHi bound [1994-01-01, 1995-01-01).
	Q6ShipDateLo = Date(1994, 1, 1)
	Q6ShipDateHi = Date(1995, 1, 1)
	// CurrentDate is dbgen's fixed "today" used for l_receiptdate logic.
	CurrentDate = Date(1995, 6, 17)
)

// Schema returns the numeric LINEITEM schema.
func Schema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "l_orderkey", Type: columnar.Int64},
		columnar.Field{Name: "l_partkey", Type: columnar.Int64},
		columnar.Field{Name: "l_suppkey", Type: columnar.Int64},
		columnar.Field{Name: "l_linenumber", Type: columnar.Int64},
		columnar.Field{Name: "l_quantity", Type: columnar.Float64},
		columnar.Field{Name: "l_extendedprice", Type: columnar.Float64},
		columnar.Field{Name: "l_discount", Type: columnar.Float64},
		columnar.Field{Name: "l_tax", Type: columnar.Float64},
		columnar.Field{Name: "l_returnflag", Type: columnar.Int64},
		columnar.Field{Name: "l_linestatus", Type: columnar.Int64},
		columnar.Field{Name: "l_shipdate", Type: columnar.Int64},
		columnar.Field{Name: "l_commitdate", Type: columnar.Int64},
		columnar.Field{Name: "l_receiptdate", Type: columnar.Int64},
	)
}

// Gen generates LINEITEM data deterministically.
type Gen struct {
	// SF is the scale factor; the row count is RowsPerSF * SF.
	SF float64
	// Seed makes generation reproducible.
	Seed int64
}

// NumRows returns the row count for the configured scale factor.
func (g Gen) NumRows() int {
	n := int(float64(RowsPerSF) * g.SF)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate produces the full relation sorted by l_shipdate.
func (g Gen) Generate() *columnar.Chunk {
	n := g.NumRows()
	rng := rand.New(rand.NewSource(g.Seed))
	type row struct {
		orderkey, partkey, suppkey, linenumber int64
		qty, price, disc, tax                  float64
		rflag, lstatus                         int64
		ship, commit, receipt                  int64
	}
	rows := make([]row, n)
	orderKey := int64(1)
	line := int64(1)
	linesInOrder := int64(rng.Intn(7) + 1)
	// Order dates span 1992-01-01 .. 1998-08-02 as in dbgen; shipdates
	// extend up to 121 days later (max ~1998-12-01), so the Q1 cutoff of
	// 1998-09-02 selects ~98 % of the relation.
	orderDateMax := Date(1998, 8, 2)
	for i := range rows {
		if line > linesInOrder {
			orderKey++
			line = 1
			linesInOrder = int64(rng.Intn(7) + 1)
		}
		orderDate := rng.Int63n(orderDateMax)
		ship := orderDate + int64(rng.Intn(121)) + 1
		commit := orderDate + int64(rng.Intn(91)) + 30
		receipt := ship + int64(rng.Intn(30)) + 1
		var rflag int64
		if receipt <= CurrentDate {
			if rng.Intn(2) == 0 {
				rflag = ReturnFlagR
			} else {
				rflag = ReturnFlagA
			}
		} else {
			rflag = ReturnFlagN
		}
		lstatus := LineStatusO
		if ship <= CurrentDate {
			lstatus = LineStatusF
		}
		qty := float64(rng.Intn(50) + 1)
		// dbgen: extendedprice = quantity * part retail price
		// (90000..200000 cents scaled); approximate its range.
		price := qty * (float64(rng.Intn(110001)+90000) / 100.0)
		rows[i] = row{
			orderkey:   orderKey,
			partkey:    int64(rng.Intn(200000*maxInt(1, int(g.SF))) + 1),
			suppkey:    int64(rng.Intn(maxInt(1, int(10000*g.SF))) + 1),
			linenumber: line,
			qty:        qty,
			price:      price,
			disc:       float64(rng.Intn(11)) / 100.0,
			tax:        float64(rng.Intn(9)) / 100.0,
			rflag:      rflag,
			lstatus:    lstatus,
			ship:       ship,
			commit:     commit,
			receipt:    receipt,
		}
		line++
	}
	// §5.1: "we sort the LINEITEM relation by l_shipdate".
	sort.Slice(rows, func(i, j int) bool { return rows[i].ship < rows[j].ship })

	c := columnar.NewChunk(Schema(), n)
	for _, r := range rows {
		c.Columns[0].AppendInt64(r.orderkey)
		c.Columns[1].AppendInt64(r.partkey)
		c.Columns[2].AppendInt64(r.suppkey)
		c.Columns[3].AppendInt64(r.linenumber)
		c.Columns[4].AppendFloat64(r.qty)
		c.Columns[5].AppendFloat64(r.price)
		c.Columns[6].AppendFloat64(r.disc)
		c.Columns[7].AppendFloat64(r.tax)
		c.Columns[8].AppendInt64(r.rflag)
		c.Columns[9].AppendInt64(r.lstatus)
		c.Columns[10].AppendInt64(r.ship)
		c.Columns[11].AppendInt64(r.commit)
		c.Columns[12].AppendInt64(r.receipt)
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SupplierSchema returns the numeric SUPPLIER schema (the columns joins
// against LINEITEM need).
func SupplierSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "s_suppkey", Type: columnar.Int64},
		columnar.Field{Name: "s_nationkey", Type: columnar.Int64},
		columnar.Field{Name: "s_acctbal", Type: columnar.Float64},
	)
}

// Supplier generates the SUPPLIER relation: 10000 × SF rows (dbgen), with
// nation keys uniform over the 25 TPC-H nations. It is the small broadcast
// side of LINEITEM joins.
func (g Gen) Supplier() *columnar.Chunk {
	n := int(10000 * g.SF)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(g.Seed ^ 0x5afe))
	c := columnar.NewChunk(SupplierSchema(), n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(i + 1))
		c.Columns[1].AppendInt64(int64(rng.Intn(25)))
		c.Columns[2].AppendFloat64(float64(rng.Intn(1099999))/100.0 - 999.99)
	}
	return c
}

// OrdersSchema returns the numeric ORDERS schema (the columns the join
// queries need). ORDERS is the second large relation: at scale it is far
// beyond any broadcast limit, so LINEITEM ⋈ ORDERS is the canonical
// two-large-sides shuffle join.
func OrdersSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "o_orderkey", Type: columnar.Int64},
		columnar.Field{Name: "o_custkey", Type: columnar.Int64},
		columnar.Field{Name: "o_orderpriority", Type: columnar.Int64}, // dbgen's '1-URGENT'..'5-LOW' as 0..4
		columnar.Field{Name: "o_totalprice", Type: columnar.Float64},
		columnar.Field{Name: "o_orderdate", Type: columnar.Int64},
	)
}

// OrdersFor generates the ORDERS relation matching a generated LINEITEM
// chunk: one row per order key in [1, max(l_orderkey)], so every lineitem
// joins exactly one order (dbgen's referential integrity). Deterministic
// in g.Seed.
func (g Gen) OrdersFor(lineitem *columnar.Chunk) *columnar.Chunk {
	var maxKey int64
	for _, k := range lineitem.Column("l_orderkey").Int64s {
		if k > maxKey {
			maxKey = k
		}
	}
	rng := rand.New(rand.NewSource(g.Seed ^ 0x0bde5))
	c := columnar.NewChunk(OrdersSchema(), int(maxKey))
	orderDateMax := Date(1998, 8, 2)
	for k := int64(1); k <= maxKey; k++ {
		c.Columns[0].AppendInt64(k)
		c.Columns[1].AppendInt64(int64(rng.Intn(maxInt(1, int(150000*g.SF))) + 1))
		c.Columns[2].AppendInt64(int64(rng.Intn(5)))
		c.Columns[3].AppendFloat64(float64(rng.Intn(50000000))/100.0 + 857.71)
		c.Columns[4].AppendInt64(rng.Int63n(orderDateMax))
	}
	return c
}
