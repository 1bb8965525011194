// Dataflow example: the paper's Listing 1 —
//
//	data = lambada.from_parquet('s3://bucket/*.parquet')
//	             .filter(lambda x: x[1] >= 0.05)
//	             .map(lambda x: x[1] * x[2])
//	             .reduce(lambda x, y: x + y)
//
// — as the engine's logical plan, one node per step, each wrapping the one
// before. The "UDFs" are expression trees over named columns, which keeps
// them analyzable: the optimizer pushes the filter and the projection into
// the S3 scan and splits the aggregation into worker partials and a driver
// merge. It exits non-zero when the fleet's answer misses a direct scalar
// computation.
package main

import (
	"fmt"
	"log"
	"math"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

func main() {
	// from_parquet → filter → map → reduce, over named columns.
	var plan engine.Plan = &engine.ScanPlan{Table: "lineitem"}
	plan = &engine.FilterPlan{In: plan,
		Pred: engine.NewBin(engine.OpGE, engine.Col("l_discount"), engine.ConstFloat(0.05))}
	plan = &engine.ProjectPlan{In: plan, Names: []string{"weighted"},
		Exprs: []engine.Expr{engine.NewBin(engine.OpMul, engine.Col("l_discount"), engine.Col("l_extendedprice"))}}
	plan = &engine.AggregatePlan{In: plan, Aggs: []engine.AggSpec{
		{Func: engine.AggSum, Arg: engine.Col("weighted"), Name: "total"},
		{Func: engine.AggCount, Name: "n"},
	}}

	fmt.Println("logical plan:")
	fmt.Print(engine.Explain(plan))

	// Deploy and run on the serverless fleet.
	dep := driver.NewLocal()
	sess := driver.NewSession(dep, driver.DefaultConfig())
	env := simenv.NewImmediate()
	if err := sess.Install(); err != nil {
		log.Fatal(err)
	}
	data := tpch.Gen{SF: 0.005, Seed: 3}.Generate()
	files, err := sess.UploadTable(env, "demo", "lineitem", data, 8, lpq.WriterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	out, rep, err := sess.Run(env, plan, driver.TableFiles{"lineitem": files}, driver.DefaultStageConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Validate against a direct scalar computation.
	var want float64
	var wantN int64
	disc := data.Column("l_discount").Float64s
	price := data.Column("l_extendedprice").Float64s
	for i := range disc {
		if disc[i] >= 0.05 {
			want += disc[i] * price[i]
			wantN++
		}
	}
	if out.NumRows() != 1 {
		log.Fatalf("%d result rows, want 1", out.NumRows())
	}
	got, gotN := out.Column("total").Float64s[0], out.Column("n").Int64s[0]
	fmt.Printf("\nsum(discount*price | discount >= 0.05) = %.4f (reference %.4f)\n", got, want)
	fmt.Printf("matching rows: %d (reference %d)\n", gotN, wantN)
	fmt.Printf("%d workers, cost $%.6f\n", rep.Workers, rep.TotalCost)
	// The fleet's partial sums add in another order than the loop above.
	if math.Abs(got-want) > 1e-9*math.Abs(want) || gotN != wantN {
		log.Fatal("the fleet's answer differs from the reference")
	}
}
