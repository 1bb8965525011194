package engine

import (
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

func benchCatalog(b *testing.B) (Catalog, int64) {
	b.Helper()
	data := tpch.Gen{SF: 0.01, Seed: 1}.Generate()
	return Catalog{"lineitem": NewMemSource(tpch.Schema(), data)}, data.ByteSize()
}

func BenchmarkExecuteQ1(b *testing.B) {
	cat, bytes := benchCatalog(b)
	plan, err := Optimize(q1Plan(), cat)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteQ6(b *testing.B) {
	cat, bytes := benchCatalog(b)
	plan, err := Optimize(q6Plan(), cat)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterEval(b *testing.B) {
	data := tpch.Gen{SF: 0.01, Seed: 1}.Generate()
	pred := And(
		NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
		NewBin(OpLT, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateHi)),
		NewBin(OpLT, Col("l_quantity"), ConstFloat(24)),
	)
	pool := columnar.NewPool()
	b.SetBytes(int64(data.NumRows()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := pred.Eval(data, pool)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutVector(v)
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	cat, bytes := benchCatalog(b)
	plan := &AggregatePlan{
		GroupBy: []string{"l_suppkey"},
		Aggs: []AggSpec{
			{Func: AggSum, Arg: Col("l_extendedprice"), Name: "s"},
			{Func: AggCount, Name: "n"},
		},
		In: &ScanPlan{Table: "lineitem"},
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

// joinBenchSetup: many-chunk LINEITEM probe side, SUPPLIER build side.
func joinBenchSetup(b *testing.B) (Catalog, *columnar.Chunk, int64) {
	b.Helper()
	data := tpch.Gen{SF: 0.02, Seed: 1}.Generate()
	const rowsPerChunk = 4096
	var parts []*columnar.Chunk
	for lo := 0; lo < data.NumRows(); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > data.NumRows() {
			hi = data.NumRows()
		}
		parts = append(parts, data.Slice(lo, hi))
	}
	sup := tpch.Gen{SF: 0.02, Seed: 1}.Supplier()
	cat := Catalog{
		"lineitem": NewMemSource(tpch.Schema(), parts...),
		"supplier": NewMemSource(tpch.SupplierSchema(), sup),
	}
	return cat, sup, data.ByteSize()
}

func joinBenchPlan() *JoinPlan {
	return &JoinPlan{
		Left:    &ScanPlan{Table: "lineitem"},
		Right:   &ScanPlan{Table: "supplier"},
		LeftKey: "l_suppkey", RightKey: "s_suppkey",
	}
}

// BenchmarkHashJoin measures the sealed-table join kernel (allocs/op is
// the headline: the sealed CSR table and selection-vector gather replace
// the seed's map[int64][]int build and row-at-a-time appends).
func BenchmarkHashJoin(b *testing.B) {
	cat, _, bytes := joinBenchSetup(b)
	plan := joinBenchPlan()
	if err := Resolve(plan, cat); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinSeedMap is the seed kernel kept for comparison: build a
// map[int64][]int row index, probe row-at-a-time with per-match column
// appends — the allocation baseline BenchmarkHashJoin is measured against.
func BenchmarkHashJoinSeedMap(b *testing.B) {
	cat, sup, bytes := joinBenchSetup(b)
	plan := joinBenchPlan()
	if err := Resolve(plan, cat); err != nil {
		b.Fatal(err)
	}
	outSchema, err := plan.OutSchema()
	if err != nil {
		b.Fatal(err)
	}
	ls, err := plan.Left.OutSchema()
	if err != nil {
		b.Fatal(err)
	}
	li := ls.Index(plan.LeftKey)
	nLeft := ls.Len()
	ri := sup.Schema.Index(plan.RightKey)
	src := cat["lineitem"]
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build := make(map[int64][]int, sup.NumRows())
		for r := 0; r < sup.NumRows(); r++ {
			k := sup.Columns[ri].Int64At(r)
			build[k] = append(build[k], r)
		}
		result := columnar.NewChunk(outSchema, 0)
		err := src.Scan(nil, nil, func(c *columnar.Chunk) error {
			out := columnar.NewChunk(outSchema, c.NumRows())
			keys := c.Columns[li]
			for row := 0; row < c.NumRows(); row++ {
				for _, m := range build[keys.Int64At(row)] {
					for j := 0; j < nLeft; j++ {
						out.Columns[j].Append(c.Columns[j], row)
					}
					col := nLeft
					for j := 0; j < sup.Schema.Len(); j++ {
						if j == ri {
							continue
						}
						out.Columns[col].Append(sup.Columns[j], m)
						col++
					}
				}
			}
			result.AppendChunk(out)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanMarshalRoundTrip(b *testing.B) {
	cat, _ := benchCatalog(b)
	plan, err := Optimize(q1Plan(), cat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := MarshalPlan(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalPlan(raw); err != nil {
			b.Fatal(err)
		}
	}
}
