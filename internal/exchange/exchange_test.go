package exchange

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/simclock"
)

func TestVariantStringsAndTable2(t *testing.T) {
	cases := []struct {
		v      Variant
		name   string
		reads  float64
		writes float64
	}{
		{Variant{Levels: 1}, "1l", 1e6, 1e6}, // P^2 at P=1000
		{Variant{Levels: 1, WriteCombining: true}, "1l-wc", 1e6, 1000},
		{Variant{Levels: 2}, "2l", 2 * 1000 * math.Sqrt(1000), 2 * 1000 * math.Sqrt(1000)},
		{Variant{Levels: 2, WriteCombining: true}, "2l-wc", 2 * 1000 * math.Sqrt(1000), 2000},
		{Variant{Levels: 3}, "3l", 3 * 1000 * math.Cbrt(1000), 3 * 1000 * math.Cbrt(1000)},
		{Variant{Levels: 3, WriteCombining: true}, "3l-wc", 3 * 1000 * math.Cbrt(1000), 3000},
	}
	for _, c := range cases {
		if c.v.String() != c.name {
			t.Errorf("String = %q, want %q", c.v.String(), c.name)
		}
		if got := c.v.Reads(1000); math.Abs(got-c.reads)/c.reads > 1e-9 {
			t.Errorf("%s reads = %v, want %v", c.name, got, c.reads)
		}
		if got := c.v.Writes(1000); math.Abs(got-c.writes)/c.writes > 1e-9 {
			t.Errorf("%s writes = %v, want %v", c.name, got, c.writes)
		}
		if c.v.Scans() != c.v.Levels {
			t.Errorf("%s scans = %d", c.name, c.v.Scans())
		}
	}
}

func TestFigure9CostShape(t *testing.T) {
	// Figure 9 plots the read and write bars; the request bill adds write
	// combining's list requests.
	readWrite := func(v Variant, p int) pricing.USD {
		return pricing.USD(v.Reads(p))*pricing.S3Read + pricing.USD(v.Writes(p))*pricing.S3Write
	}
	// §4.4.1: with 4k workers, BasicExchange costs about $100 in requests.
	cost4k := readWrite(AllVariants[0], 4096)
	if cost4k < 80 || cost4k > 120 {
		t.Errorf("1l at 4096 workers = %v, want ~$100", cost4k)
	}
	// Figure 9 orderings (read+write bars): for any worker count, each
	// optimization reduces the plotted cost.
	for _, p := range []int{64, 256, 1024, 4096, 16384} {
		c1 := readWrite(Variant{Levels: 1}, p)
		c1wc := readWrite(Variant{Levels: 1, WriteCombining: true}, p)
		c2wc := readWrite(Variant{Levels: 2, WriteCombining: true}, p)
		if !(c1 > c1wc && c1wc > c2wc) {
			t.Errorf("P=%d: cost ordering violated: %v %v %v", p, c1, c1wc, c2wc)
		}
		// The third level pays off only at scale (its extra writes
		// dominate at small P — the crossover visible in Figure 9).
		if p >= 4096 {
			v3wc := Variant{Levels: 3, WriteCombining: true}
			if c3wc := readWrite(v3wc, p); c3wc >= c2wc {
				t.Errorf("P=%d: 3l-wc %v not below 2l-wc %v", p, c3wc, c2wc)
			}
		}
	}
	// 2l-wc brings request costs below worker costs in almost all
	// configurations (§4.4.4) — check at 1 GiB × 3 scans upper band.
	p := 4096
	v2wc := Variant{Levels: 2, WriteCombining: true}
	req := readWrite(v2wc, p) + pricing.USD(v2wc.Lists(p))*pricing.S3List
	if wrk := v2wc.WorkerCost(p, 1<<30); req > wrk {
		t.Errorf("2l-wc requests %v exceed worker cost %v", req, wrk)
	}
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		p, k int
		want []int
	}{
		{16, 2, []int{4, 4}},
		{64, 3, []int{4, 4, 4}},
		{100, 2, []int{10, 10}},
		{250, 2, []int{10, 25}}, // the divisor closest to √250 ≈ 15.8 is 10
		{17, 2, []int{1, 17}},   // a prime degrades to one real level
	}
	for _, c := range cases {
		if got := Factorize(c.p, c.k); !slices.Equal(got, c.want) {
			t.Errorf("Factorize(%d,%d) = %v, want %v", c.p, c.k, got, c.want)
		}
	}
}

func TestGridCoordinates(t *testing.T) {
	g := newGrid(12, 2) // factors e.g. [4,3] or [3,4]
	for dim, side := range g.factors {
		// The groups of a dimension partition the workers, and the members
		// of a group cover each coordinate of the dimension exactly once.
		members := map[int]map[int]bool{}
		for id := 0; id < 12; id++ {
			group := g.groupID(id, dim)
			if members[group] == nil {
				members[group] = map[int]bool{}
			}
			if c := g.coord(id, dim); c < 0 || c >= side || members[group][c] {
				t.Fatalf("dim %d: worker %d has coordinate %d, taken or outside [0,%d)", dim, id, c, side)
			}
			members[group][g.coord(id, dim)] = true
		}
		if len(members) != 12/side {
			t.Fatalf("dim %d: %d groups of side %d over 12 workers", dim, len(members), side)
		}
		for group, ms := range members {
			if len(ms) != side {
				t.Fatalf("dim %d group %d covers %d of %d coordinates", dim, group, len(ms), side)
			}
		}
	}
}

// runFunctionalExchange shuffles rows across P goroutine workers and checks
// every row landed at PartitionOf(key, P).
func runFunctionalExchange(t *testing.T, p int, v Variant, rowsPerWorker int) {
	t.Helper()
	svc := s3.New(s3.Config{})
	buckets := []string{"xb0", "xb1", "xb2"}
	for _, b := range buckets {
		svc.MustCreateBucket(b)
	}
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	opts := DefaultOptions(v, buckets...)
	opts.Prefix = fmt.Sprintf("t-%s-%d", v, p)

	inputs := make([]*columnar.Chunk, p)
	var wantTotal int
	for w := 0; w < p; w++ {
		c := columnar.NewChunk(schema, rowsPerWorker)
		for i := 0; i < rowsPerWorker; i++ {
			c.Columns[0].AppendInt64(int64(w*rowsPerWorker + i))
			c.Columns[1].AppendFloat64(float64(w) + float64(i)/1000)
		}
		inputs[w] = c
		wantTotal += rowsPerWorker
	}

	results := make([]*columnar.Chunk, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for wid := 0; wid < p; wid++ {
		wid := wid
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := s3.NewClient(svc, simenv.NewImmediate())
			wk := Worker{ID: wid, P: p, Client: client}
			results[wid], errs[wid] = wk.Run(opts, inputs[wid], "k")
		}()
	}
	wg.Wait()
	total := 0
	for wid := 0; wid < p; wid++ {
		if errs[wid] != nil {
			t.Fatalf("worker %d: %v", wid, errs[wid])
		}
		got := results[wid]
		total += got.NumRows()
		for i := 0; i < got.NumRows(); i++ {
			k := got.Columns[0].Int64s[i]
			if PartitionOf(k, p) != wid {
				t.Fatalf("row with key %d (partition %d) ended at worker %d", k, PartitionOf(k, p), wid)
			}
		}
	}
	if total != wantTotal {
		t.Fatalf("total rows after exchange = %d, want %d", total, wantTotal)
	}
}

func TestBasicExchangeFunctional(t *testing.T) {
	runFunctionalExchange(t, 6, Variant{Levels: 1}, 40)
}

func TestBasicExchangeWriteCombining(t *testing.T) {
	runFunctionalExchange(t, 6, Variant{Levels: 1, WriteCombining: true}, 40)
}

func TestTwoLevelExchangeFunctional(t *testing.T) {
	runFunctionalExchange(t, 16, Variant{Levels: 2}, 25)
}

func TestTwoLevelWriteCombining(t *testing.T) {
	runFunctionalExchange(t, 16, Variant{Levels: 2, WriteCombining: true}, 25)
}

func TestThreeLevelExchangeFunctional(t *testing.T) {
	runFunctionalExchange(t, 27, Variant{Levels: 3, WriteCombining: true}, 10)
}

func TestNonPerfectSquareWorkerCount(t *testing.T) {
	runFunctionalExchange(t, 12, Variant{Levels: 2, WriteCombining: true}, 15)
}

// TestExchangeRequestCountsMatchModel: the grid exchange bills what the exact
// request model predicts. Along a level of side s the workers form P/s groups,
// each a single-round boundary of s senders into s partitions in one shard
// bucket, so the level bills P/s × Variant{Levels: 1}.Requests(s, s, 1).
// Puts and gets are exact; lists are a floor, because the workers run
// concurrently and a reader may List its group again while writers arrive.
func TestExchangeRequestCountsMatchModel(t *testing.T) {
	for _, tc := range []struct {
		p int
		v Variant
	}{
		{16, Variant{Levels: 1}}, {16, Variant{Levels: 1, WriteCombining: true}},
		{16, Variant{Levels: 2}}, {16, Variant{Levels: 2, WriteCombining: true}},
		{12, Variant{Levels: 2}}, {12, Variant{Levels: 2, WriteCombining: true}},
		{27, Variant{Levels: 3}}, {27, Variant{Levels: 3, WriteCombining: true}},
	} {
		svc := s3.New(s3.Config{})
		buckets := []string{"b0", "b1"}
		for _, b := range buckets {
			svc.MustCreateBucket(b)
		}
		opts := DefaultOptions(tc.v, buckets...)
		schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
		var wg sync.WaitGroup
		for wid := 0; wid < tc.p; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				c := columnar.NewChunk(schema, 8)
				for i := 0; i < 8; i++ {
					c.Columns[0].AppendInt64(int64(wid*8 + i))
				}
				wk := Worker{ID: wid, P: tc.p, Client: s3.NewClient(svc, simenv.NewImmediate())}
				if _, err := wk.Run(opts, c, "k"); err != nil {
					t.Errorf("worker %d: %v", wid, err)
				}
			}(wid)
		}
		wg.Wait()
		var want RequestCount
		round := Variant{Levels: 1, WriteCombining: tc.v.WriteCombining}
		for _, s := range Factorize(tc.p, tc.v.Levels) {
			rc, groups := round.Requests(s, s, 1), int64(tc.p/s)
			want.Puts += groups * rc.Puts
			want.Gets += groups * rc.Gets
			want.Lists += groups * rc.Lists
		}
		if got := billed(t, svc, buckets); got.Puts != want.Puts || got.Gets != want.Gets || got.Lists < want.Lists {
			t.Errorf("%s at P %d: billed %+v, model predicts %+v (lists at least)", tc.v, tc.p, got, want)
		}
	}
}

func TestSyntheticExchangeDES(t *testing.T) {
	// 64 workers × 2-level-wc on the DES kernel with rate limits and
	// latencies enabled: completes, conserves bytes, stays deterministic.
	const p = 64
	variant := Variant{Levels: 2, WriteCombining: true}
	var meter *pricing.CostMeter
	for trial := 0; trial < 2; trial++ {
		meter = pricing.NewCostMeter()
		k := simclock.New()
		svc := s3.New(s3.DefaultAWSConfig(meter, 7))
		var buckets []string
		for i := 0; i < 10; i++ {
			b := fmt.Sprintf("shard-%d", i)
			buckets = append(buckets, b)
			svc.MustCreateBucket(b)
		}
		const bytesPer = int64(4 << 20)
		opts := DefaultOptions(variant, buckets...)
		opts.Poll = 100 * time.Millisecond
		var mu sync.Mutex
		var got []int64
		for wid := 0; wid < p; wid++ {
			wid := wid
			k.Go(fmt.Sprintf("w%d", wid), func(proc *simclock.Proc) {
				client := s3.NewClient(svc, proc)
				wk := Worker{ID: wid, P: p, Client: client}
				n, _, err := wk.RunSyntheticTraced(opts, bytesPer)
				if err != nil {
					t.Errorf("worker %d: %v", wid, err)
					return
				}
				mu.Lock()
				got = append(got, n)
				mu.Unlock()
			})
		}
		end := k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		if len(got) != p {
			t.Fatalf("only %d workers finished", len(got))
		}
		var total int64
		for _, n := range got {
			total += n
		}
		// Floor division loses at most a few bytes per worker per round.
		if total < bytesPer*p*9/10 {
			t.Errorf("total received %d « sent %d", total, bytesPer*p)
		}
		if end <= 0 || end > 5*time.Minute {
			t.Errorf("virtual duration = %v", end)
		}
	}

	// The synthetic run is the real run minus encoding and decoding: a
	// real-data Run at the same P and variant bills the same Puts and Gets
	// (Lists depend on who arrives when).
	real := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: real})
	svc.MustCreateBucket("b0")
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	var wg sync.WaitGroup
	for wid := 0; wid < p; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			c := columnar.NewChunk(schema, 4)
			for i := 0; i < 4; i++ {
				c.Columns[0].AppendInt64(int64(wid*4 + i))
			}
			wk := Worker{ID: wid, P: p, Client: s3.NewClient(svc, simenv.NewImmediate())}
			if _, err := wk.Run(DefaultOptions(variant, "b0"), c, "k"); err != nil {
				t.Errorf("worker %d: %v", wid, err)
			}
		}(wid)
	}
	wg.Wait()
	for _, label := range []string{pricing.LabelS3Write, pricing.LabelS3Read} {
		if got, want := meter.Count(label), real.Count(label); got != want {
			t.Errorf("%s: synthetic run billed %d, real run %d", label, got, want)
		}
	}
}

// Property: PartitionOf spreads sequential keys evenly-ish.
func TestPropertyPartitionBalance(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%63 + 2
		counts := make([]int, p)
		n := p * 200
		for k := 0; k < n; k++ {
			counts[PartitionOf(int64(k), p)]++
		}
		for _, c := range counts {
			if c < 100 || c > 300 { // expected 200 ± 50%
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
