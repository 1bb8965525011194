package exchange

import (
	"fmt"
	"sync"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
)

// BenchmarkFunctionalExchange shuffles real rows among goroutine workers.
func BenchmarkFunctionalExchange(b *testing.B) {
	const workers = 16
	const rows = 500
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	for i := 0; i < b.N; i++ {
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("b0")
		svc.MustCreateBucket("b1")
		opts := DefaultOptions(Variant{Levels: 2, WriteCombining: true}, "b0", "b1")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := columnar.NewChunk(schema, rows)
				for r := 0; r < rows; r++ {
					c.Columns[0].AppendInt64(int64(w*rows + r))
				}
				wk := Worker{ID: w, P: workers, Client: s3.NewClient(svc, simenv.NewImmediate())}
				if _, err := wk.Run(opts, c, "k"); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkSyntheticExchangeDES measures the DES exchange at 256 workers.
func BenchmarkSyntheticExchangeDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := simclock.New()
		svc := s3.New(s3.DefaultAWSConfig(nil, int64(i)))
		var buckets []string
		for j := 0; j < 16; j++ {
			name := fmt.Sprintf("s%d", j)
			buckets = append(buckets, name)
			svc.MustCreateBucket(name)
		}
		opts := DefaultOptions(Variant{Levels: 2, WriteCombining: true}, buckets...)
		for w := 0; w < 256; w++ {
			w := w
			k.Go("w", func(p *simclock.Proc) {
				client := s3.NewClient(svc, p, s3.WithShaper(netmodel.DefaultLambdaNet(), 2048))
				wk := Worker{ID: w, P: 256, Client: client}
				if _, _, err := wk.RunSyntheticTraced(opts, 64<<20); err != nil {
					b.Error(err)
				}
			})
		}
		k.Run()
	}
}

// BenchmarkPartitionHash measures the partitioning hash.
func BenchmarkPartitionHash(b *testing.B) {
	var acc int
	for i := 0; i < b.N; i++ {
		acc += PartitionOf(int64(i), 1024)
	}
	_ = acc
}
