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
		Left:     &ScanPlan{Table: "lineitem"},
		Right:    &ScanPlan{Table: "supplier"},
		LeftKeys: []string{"l_suppkey"}, RightKeys: []string{"s_suppkey"},
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
