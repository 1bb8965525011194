package driver

import (
	"math"
	"testing"
	"time"

	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// nationRevenuePlan joins LINEITEM (big, on S3) with SUPPLIER (small,
// broadcast from the driver) and aggregates revenue per nation.
func nationRevenuePlan() engine.Plan {
	return &engine.OrderByPlan{
		Keys: []engine.OrderKey{{Column: "s_nationkey"}},
		In: &engine.AggregatePlan{
			GroupBy: []string{"s_nationkey"},
			Aggs: []engine.AggSpec{
				{Func: engine.AggSum, Arg: engine.NewBin(engine.OpMul, engine.Col("l_extendedprice"),
					engine.NewBin(engine.OpSub, engine.ConstFloat(1), engine.Col("l_discount"))), Name: "revenue"},
				{Func: engine.AggCount, Name: "n"},
			},
			In: &engine.JoinPlan{
				Left:     &engine.ScanPlan{Table: "lineitem"},
				Right:    &engine.ScanPlan{Table: "supplier"},
				LeftKey:  "l_suppkey",
				RightKey: "s_suppkey",
			},
		},
	}
}

func TestBroadcastJoinEndToEnd(t *testing.T) {
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 8)
	sup := tpch.Gen{SF: 0.002, Seed: 33}.Supplier()

	out, rep, err := d.Run(env, nationRevenuePlan(), TableFiles{"lineitem": refs},
		map[string]*columnar.Chunk{"supplier": sup}, DefaultStageConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Single-node reference.
	cat := engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), data),
		"supplier": engine.NewMemSource(tpch.SupplierSchema(), sup),
	}
	want, err := engine.Execute(nationRevenuePlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != want.NumRows() {
		t.Fatalf("nations = %d, want %d", out.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if out.Column("s_nationkey").Int64s[i] != want.Column("s_nationkey").Int64s[i] {
			t.Fatalf("row %d nation mismatch", i)
		}
		a, b := out.Column("revenue").Float64s[i], want.Column("revenue").Float64s[i]
		if math.Abs(a-b) > 1e-6*b {
			t.Errorf("row %d revenue = %v, want %v", i, a, b)
		}
		if out.Column("n").Int64s[i] != want.Column("n").Int64s[i] {
			t.Errorf("row %d count mismatch", i)
		}
	}
	if rep.Workers != 8 {
		t.Errorf("workers = %d", rep.Workers)
	}
}

func TestBroadcastJoinDESDeterministic(t *testing.T) {
	run := func() (float64, time.Duration) {
		k := simclock.New()
		dep := NewSimulated(k, 51)
		var first float64
		var dur time.Duration
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			g := tpch.Gen{SF: 0.002, Seed: 61}
			refs, err := d.UploadTable(p, "tpch", "lineitem", g.Generate(), 6, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			out, rep, err := d.Run(p, nationRevenuePlan(), TableFiles{"lineitem": refs},
				map[string]*columnar.Chunk{"supplier": g.Supplier()}, DefaultStageConfig())
			if err != nil {
				t.Error(err)
				return
			}
			first = out.Column("revenue").Float64s[0]
			dur = rep.Duration
		})
		k.Run()
		return first, dur
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Error("broadcast-join DES run not deterministic")
	}
	if r1 <= 0 {
		t.Errorf("revenue = %v", r1)
	}
}

// TestSQLJoinEndToEnd drives the full stack from SQL: sqlfe parses the
// INNER JOIN into a JoinPlan, the driver broadcasts the small side, and
// worker fragments run the join in engine.Execute.
func TestSQLJoinEndToEnd(t *testing.T) {
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 8)
	sup := tpch.Gen{SF: 0.002, Seed: 33}.Supplier()

	const joinSQL = `
SELECT s_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem INNER JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
GROUP BY s_nationkey
ORDER BY s_nationkey`
	out, rep, err := d.runSQL(env, joinSQL, TableFiles{"lineitem": refs},
		map[string]*columnar.Chunk{"supplier": sup}, DefaultStageConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Single-node reference over the same plan shape.
	cat := engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), data),
		"supplier": engine.NewMemSource(tpch.SupplierSchema(), sup),
	}
	want, err := engine.Execute(nationRevenuePlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != want.NumRows() {
		t.Fatalf("nations = %d, want %d", out.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if out.Column("s_nationkey").Int64s[i] != want.Column("s_nationkey").Int64s[i] {
			t.Fatalf("row %d nation mismatch", i)
		}
		a, b := out.Column("revenue").Float64s[i], want.Column("revenue").Float64s[i]
		if math.Abs(a-b) > 1e-6*b {
			t.Errorf("row %d revenue = %v, want %v", i, a, b)
		}
		if out.Column("n").Int64s[i] != want.Column("n").Int64s[i] {
			t.Errorf("row %d count mismatch", i)
		}
	}
	if rep.Workers != 8 {
		t.Errorf("workers = %d", rep.Workers)
	}
}

func TestBroadcastMissingTableFails(t *testing.T) {
	d, env, refs, _ := localSetup(t, DefaultConfig(), 0.001, 2)
	// Plan references "supplier" but nothing is broadcast: caught at
	// driver-side optimization before any invocation.
	if _, _, err := d.Run(env, nationRevenuePlan(), TableFiles{"lineitem": refs}, nil, DefaultStageConfig()); err == nil {
		t.Error("join against missing broadcast table accepted")
	}
}
