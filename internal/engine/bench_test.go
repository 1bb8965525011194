package engine

import (
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/exchange"
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
// the seed's map[int64][]int build and row-at-a-time appends). "supplier"
// joins LINEITEM with SUPPLIER; "partition256" builds and probes the 50 000
// sparse keys of one partition of a 256-way exchange boundary, whose
// boundary hashes all agree in their low bits.
func BenchmarkHashJoin(b *testing.B) {
	b.Run("supplier", func(b *testing.B) {
		cat, _, bytes := joinBenchSetup(b)
		plan := joinBenchPlan()
		if err := Resolve(plan, cat); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(bytes)
		runJoinBench(b, plan, cat)
	})
	b.Run("partition256", func(b *testing.B) {
		schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
		probe := columnar.NewChunk(schema, 50000)
		key := []*columnar.Vector{columnar.NewVector(columnar.Int64, 1)}
		key[0].AppendInt64(0)
		for i := int64(0); probe.NumRows() < 50000; i++ {
			if key[0].Int64s[0] = i * 1000000007; exchange.HashPartition(key, 0, 256) == 0 {
				probe.Columns[0].AppendInt64(key[0].Int64s[0])
			}
		}
		build := makeBuild(probe.Columns[0].Int64s, 1, false)
		cat := Catalog{
			"probe": chunked(schema, probe, 4096),
			"build": NewMemSource(build.Schema, build),
		}
		runJoinBench(b, &JoinPlan{
			Left:     &ScanPlan{Table: "probe"},
			Right:    &ScanPlan{Table: "build"},
			LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
		}, cat)
	})
}

func runJoinBench(b *testing.B, plan Plan, cat Catalog) {
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
