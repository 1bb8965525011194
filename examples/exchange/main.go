// Exchange example: shuffles a table across serverless workers through S3 —
// the purely serverless exchange operator of §4.4. It runs the same workload
// with the basic quadratic algorithm and the two-level write-combining
// variant, showing the request-count reduction of Table 2 on real executed
// requests, then verifies every row landed at its hash partition.
package main

import (
	"fmt"
	"log"
	"sync"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/exchange"
)

func main() {
	const workers = 16
	const rowsPerWorker = 1000

	schema := columnar.NewSchema(
		columnar.Field{Name: "key", Type: columnar.Int64},
		columnar.Field{Name: "value", Type: columnar.Float64},
	)

	for _, variant := range []exchange.Variant{
		{Levels: 1, WriteCombining: false},
		{Levels: 2, WriteCombining: true},
	} {
		meter := pricing.NewCostMeter()
		svc := s3.New(s3.Config{Meter: meter})
		// Bucket sharding (§4.4.1): spreading the file matrix over
		// pre-created buckets multiplies the S3 rate limit.
		buckets := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
		for _, b := range buckets {
			svc.MustCreateBucket(b)
		}
		opts := exchange.DefaultOptions(variant, buckets...)

		// Each worker holds a slice of the table; after the exchange every
		// row lives at the worker that owns its hash partition.
		results := make([]*columnar.Chunk, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				input := columnar.NewChunk(schema, rowsPerWorker)
				for i := 0; i < rowsPerWorker; i++ {
					input.Columns[0].AppendInt64(int64(w*rowsPerWorker + i))
					input.Columns[1].AppendFloat64(float64(i))
				}
				wk := exchange.Worker{ID: w, P: workers, Client: s3.NewClient(svc, simenv.NewImmediate())}
				out, err := wk.Run(opts, input, "key")
				if err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
				results[w] = out
			}()
		}
		wg.Wait()

		total := 0
		for w, out := range results {
			total += out.NumRows()
			for i := 0; i < out.NumRows(); i++ {
				if exchange.PartitionOf(out.Columns[0].Int64s[i], workers) != w {
					log.Fatalf("misrouted row at worker %d", w)
				}
			}
		}
		fmt.Printf("%-6s shuffled %d rows across %d workers\n", variant, total, workers)
		// Without write combining a worker seals each level's files with one
		// zero-byte commit marker, on top of Table 2's writes.
		markers := 0
		if !variant.WriteCombining {
			markers = variant.Levels * workers
		}
		fmt.Printf("       S3 requests: %d reads, %d writes, %d lists (Table 2: %.0f reads, %.0f writes + %d commit markers)\n",
			meter.Count(pricing.LabelS3Read), meter.Count(pricing.LabelS3Write), meter.Count(pricing.LabelS3List),
			variant.Reads(workers), variant.Writes(workers), markers)
		fmt.Printf("       request cost: %s\n\n", meter.Total())
	}
}
