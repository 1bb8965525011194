// TPC-H example: runs Query 1 and Query 6 — the paper's two most scan-bound
// queries — on the simulated serverless fleet twice: once on the functional
// (goroutine) deployment to validate the answers against a reference
// implementation — it exits non-zero on a miss — and once on the
// discrete-event-simulated deployment with the calibrated AWS
// latency/bandwidth/pricing models, reporting interactive virtual-time
// latencies and per-query cost (the setting of Figures 10-12).
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

const q1 = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const q6 = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`

func main() {
	const sf = 0.01
	data := tpch.Gen{SF: sf, Seed: 7}.Generate()
	fmt.Printf("LINEITEM SF %g: %d rows\n\n", sf, data.NumRows())

	// ---- Functional run: validate correctness against the reference.
	dep := driver.NewLocal()
	sess := driver.NewSession(dep, driver.DefaultConfig())
	env := simenv.NewImmediate()
	if err := sess.Install(); err != nil {
		log.Fatal(err)
	}
	files, err := sess.UploadTable(env, "tpch", "lineitem", data, 16,
		lpq.WriterOptions{RowGroupRows: 8192, Compression: lpq.Gzip})
	if err != nil {
		log.Fatal(err)
	}

	out, rep, err := sess.RunSQL(env, q1, "lineitem", files)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q1 (distributed):")
	ref := tpch.Q1Reference(data)
	if out.NumRows() != len(ref) {
		log.Fatalf("Q1: %d groups, reference %d", out.NumRows(), len(ref))
	}
	ok := true
	for i, r := range ref {
		got := out.Column("sum_charge").Float64s[i]
		n := out.Column("count_order").Int64s[i]
		status := "OK"
		if out.Column("l_returnflag").Int64s[i] != r.ReturnFlag || out.Column("l_linestatus").Int64s[i] != r.LineStatus ||
			!near(out.Column("sum_qty").Float64s[i], r.SumQty) || !near(got, r.SumCharge) || n != r.Count {
			status, ok = "MISMATCH", false
		}
		fmt.Printf("  group(%d,%d): sum_charge=%.2f count=%d  [%s]\n", r.ReturnFlag, r.LineStatus, got, n, status)
	}
	fmt.Printf("  workers=%d cost=$%.6f\n\n", rep.Workers, rep.TotalCost)

	out6, _, err := sess.RunSQL(env, q6, "lineitem", files)
	if err != nil {
		log.Fatal(err)
	}
	want := tpch.Q6Reference(data)
	if out6.NumRows() != 1 {
		log.Fatalf("Q6: %d rows, want 1", out6.NumRows())
	}
	got6 := out6.Column("revenue").Float64s[0]
	fmt.Printf("Q6 revenue: %.4f (reference %.4f)\n\n", got6, want)
	if !ok || !near(got6, want) {
		log.Fatal("the distributed answers differ from the reference")
	}

	// ---- DES run: virtual-time latency and cost under the AWS models.
	k := simclock.New()
	sdep := driver.NewSimulated(k, 11)
	k.Go("driver", func(p *simclock.Proc) {
		cfg := driver.DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		sd := driver.NewSession(sdep, cfg)
		if err := sd.Install(); err != nil {
			log.Fatal(err)
		}
		srefs, err := sd.UploadTable(p, "tpch", "lineitem", data, 16,
			lpq.WriterOptions{RowGroupRows: 8192, Compression: lpq.Gzip})
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range []struct {
			name, sql string
		}{{"Q1", q1}, {"Q6", q6}} {
			_, rep, err := sd.RunSQL(p, q.sql, "lineitem", srefs)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("DES %s: latency %v (invocation %v), %d workers (%d cold), cost $%.6f\n",
				q.name, rep.Duration.Round(time.Millisecond), rep.Invocation.Round(time.Millisecond),
				rep.Workers, rep.ColdWorkers, rep.TotalCost)
			p.Sleep(30 * time.Second) // think time between queries (Figure 2)
		}
	})
	k.Run()
}

// near reports whether got is within a relative 1e-9 of want: the partial
// sums of a fleet add in another order than the reference's one loop.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
