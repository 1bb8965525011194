// Quickstart: install Lambada on a local (in-process) serverless
// deployment, upload a small table, and run a SQL query on the worker
// fleet. This is the smallest end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

func main() {
	// 1. A deployment bundles the serverless services (S3, Lambda, SQS) —
	//    NewLocal runs workers as goroutines with zero simulated latency.
	//    A session is the driver; env is the clock every call of it runs on.
	dep := driver.NewLocal()
	sess := driver.NewSession(dep, driver.DefaultConfig())
	env := simenv.NewImmediate()

	// 2. Install: registers the worker function and the result queue.
	//    (The paper's Figure 2: installation happens once.)
	if err := sess.Install(); err != nil {
		log.Fatal(err)
	}

	// 3. Upload a table: TPC-H LINEITEM at a tiny scale factor, stored as
	//    four Parquet-like files in simulated S3.
	data := tpch.Gen{SF: 0.001, Seed: 1}.Generate()
	files, err := sess.UploadTable(env, "demo", "lineitem", data, 4,
		lpq.WriterOptions{Compression: lpq.Gzip})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d rows as %d files\n", data.NumRows(), len(files))

	// 4. Run a query. The driver optimizes the plan (selection and
	//    projection push-down), splits it into worker and driver scopes,
	//    invokes one worker per file, and merges the partial aggregates.
	out, rep, err := sess.RunSQL(env, `
		SELECT l_returnflag, COUNT(*) AS n, AVG(l_quantity) AS avg_qty
		FROM lineitem
		WHERE l_shipdate >= DATE '1995-01-01'
		GROUP BY l_returnflag
		ORDER BY l_returnflag`, "lineitem", files)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < out.NumRows(); i++ {
		fmt.Printf("returnflag=%d  n=%-6d avg_qty=%.2f\n",
			out.Column("l_returnflag").Int64s[i],
			out.Column("n").Int64s[i],
			out.Column("avg_qty").Float64s[i])
	}
	fmt.Printf("\n%d workers, query cost $%.6f\n", rep.Workers, rep.TotalCost)
}
