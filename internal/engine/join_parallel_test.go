package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// joinFixture builds a many-chunk probe table and a build table exercising
// a given key layout.
type joinFixture struct {
	name string
	cat  Catalog
	plan func() Plan
	// rows and digest are the output recorded from the pipeline-parallel
	// executor (see chunkDigest).
	rows   int
	digest string
}

// chunked splits rows into chunks of the given size.
func chunked(schema *columnar.Schema, c *columnar.Chunk, rowsPerChunk int) *MemSource {
	var chunks []*columnar.Chunk
	for lo := 0; lo < c.NumRows(); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > c.NumRows() {
			hi = c.NumRows()
		}
		chunks = append(chunks, c.Slice(lo, hi))
	}
	return NewMemSource(schema, chunks...)
}

// makeProbe builds a probe table: k cycles 0..keyMod-1 (with optional
// sparse spreading), k2 cycles 0..6, v is a float payload.
func makeProbe(rows, keyMod int, spread int64) *columnar.Chunk {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	c := columnar.NewChunk(schema, rows)
	for i := 0; i < rows; i++ {
		c.Columns[0].AppendInt64(int64(i%keyMod) * spread)
		c.Columns[1].AppendInt64(int64(i % 7))
		c.Columns[2].AppendFloat64(float64(i) * 0.125)
	}
	return c
}

// makeBuild builds a build table with dupFactor rows per key (duplicate
// build keys → multiple matches per probe row).
func makeBuild(keys []int64, dupFactor int, withK2 bool) *columnar.Chunk {
	fields := []columnar.Field{
		{Name: "bk", Type: columnar.Int64},
	}
	if withK2 {
		fields = append(fields, columnar.Field{Name: "bk2", Type: columnar.Int64})
	}
	fields = append(fields, columnar.Field{Name: "payload", Type: columnar.Int64})
	schema := columnar.NewSchema(fields...)
	c := columnar.NewChunk(schema, len(keys)*dupFactor)
	row := int64(0)
	for _, k := range keys {
		for d := 0; d < dupFactor; d++ {
			col := 0
			c.Columns[col].AppendInt64(k)
			col++
			if withK2 {
				c.Columns[col].AppendInt64(row % 7)
				col++
			}
			c.Columns[col].AppendInt64(1000 + row)
			row++
		}
	}
	return c
}

func joinFixtures() []joinFixture {
	probeSchema := makeProbe(1, 1, 1).Schema

	fixtures := []joinFixture{}

	// Duplicate build keys in the key table's dense mode (keys 0..19,
	// contiguous).
	denseKeys := make([]int64, 20)
	for i := range denseKeys {
		denseKeys[i] = int64(i)
	}
	fixtures = append(fixtures, joinFixture{
		name: "dup-keys-dense",
		rows: 12000, digest: "570af30ed47a0d53",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(5000, 25, 1), 400),
			"build": NewMemSource(makeBuild(denseKeys, 3, false).Schema, makeBuild(denseKeys, 3, false)),
		},
		plan: func() Plan {
			return &JoinPlan{
				Left:     &ScanPlan{Table: "probe"},
				Right:    &ScanPlan{Table: "build"},
				LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
			}
		},
	})

	// Sparse keys force the key table's hashed mode (spread defeats the
	// dense-span rule).
	sparseKeys := make([]int64, 40)
	for i := range sparseKeys {
		sparseKeys[i] = int64(i) * 1000000007
	}
	fixtures = append(fixtures, joinFixture{
		name: "sparse-int64-openaddressing",
		rows: 10000, digest: "62e676fff8dca571",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(5000, 40, 1000000007), 300),
			"build": NewMemSource(makeBuild(sparseKeys, 2, false).Schema, makeBuild(sparseKeys, 2, false)),
		},
		plan: func() Plan {
			return &JoinPlan{
				Left:     &ScanPlan{Table: "probe"},
				Right:    &ScanPlan{Table: "build"},
				LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
			}
		},
	})

	// Empty build side: every probe row misses.
	fixtures = append(fixtures, joinFixture{
		name: "empty-build",
		rows: 0, digest: "07a4e49adcd4c694",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(2000, 10, 1), 250),
			"build": NewMemSource(makeBuild(nil, 1, false).Schema),
		},
		plan: func() Plan {
			return &JoinPlan{
				Left:     &ScanPlan{Table: "probe"},
				Right:    &ScanPlan{Table: "build"},
				LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
			}
		},
	})

	// Composite keys: two key columns in one key table.
	fixtures = append(fixtures, joinFixture{
		name: "composite-string-keys",
		rows: 1142, digest: "88a667ed35002625",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(4000, 12, 1), 350),
			"build": NewMemSource(makeBuild(denseKeys[:12], 2, true).Schema, makeBuild(denseKeys[:12], 2, true)),
		},
		plan: func() Plan {
			return &JoinPlan{
				Left:     &ScanPlan{Table: "probe"},
				Right:    &ScanPlan{Table: "build"},
				LeftKeys: []string{"k", "k2"}, RightKeys: []string{"bk", "bk2"},
			}
		},
	})

	// Join under an aggregate: the probe pipeline ends in the aggregation
	// breaker, with the gathered probe outputs pool-recycled there.
	fixtures = append(fixtures, joinFixture{
		name: "join-under-aggregate",
		rows: 40, digest: "de0c6d67d333f9df",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(6000, 25, 1), 500),
			"build": NewMemSource(makeBuild(denseKeys, 2, false).Schema, makeBuild(denseKeys, 2, false)),
		},
		plan: func() Plan {
			return &AggregatePlan{
				GroupBy: []string{"payload"},
				Aggs: []AggSpec{
					{Func: AggSum, Arg: Col("v"), Name: "s"},
					{Func: AggCount, Name: "n"},
				},
				In: &JoinPlan{
					Left:     &ScanPlan{Table: "probe"},
					Right:    &ScanPlan{Table: "build"},
					LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
				},
			}
		},
	})

	// Join feeding ORDER BY + LIMIT: sort and limit breakers stacked on the
	// probe pipeline.
	fixtures = append(fixtures, joinFixture{
		name: "join-orderby-limit",
		rows: 77, digest: "fb4d73d918e7b378",
		cat: Catalog{
			"probe": chunked(probeSchema, makeProbe(4000, 25, 1), 300),
			"build": NewMemSource(makeBuild(denseKeys, 2, false).Schema, makeBuild(denseKeys, 2, false)),
		},
		plan: func() Plan {
			return &LimitPlan{N: 77, In: &OrderByPlan{
				Keys: []OrderKey{{Column: "v", Desc: true}, {Column: "payload"}},
				In: &JoinPlan{
					Left: &FilterPlan{
						Pred: NewBin(OpLT, Col("k"), ConstInt(18)),
						In:   &ScanPlan{Table: "probe"},
					},
					Right:    &ScanPlan{Table: "build"},
					LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
				},
			}}
		},
	})

	return fixtures
}

// TestJoinParallelByteIdentity is the identity suite of the join kernel:
// every fixture must produce, bit for bit, the output recorded from the
// pipeline-parallel executor, at GOMAXPROCS 1 and 4 and whatever pipeline
// count it is asked for.
func TestJoinParallelByteIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, fx := range joinFixtures() {
			for _, pipelines := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("procs=%d/%s/pipelines=%d", procs, fx.name, pipelines), func(t *testing.T) {
					out, err := ExecuteParallel(fx.plan(), fx.cat, ParallelConfig{Pipelines: pipelines})
					if err != nil {
						t.Fatal(err)
					}
					matchesRecorded(t, fx.name, out, fx.rows, fx.digest)
				})
			}
		}
	}
}

// TestPropertyJoinMatchesNestedLoop: the hash join returns what a nested
// loop over both sides returns, pairs in (probe row, build row) order, for
// narrow single keys (the key table's dense mode), sparse single keys and
// two-column keys (its hashed mode), the probe side in one chunk or several.
func TestPropertyJoinMatchesNestedLoop(t *testing.T) {
	probeSchema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "row", Type: columnar.Int64},
	)
	buildSchema := columnar.NewSchema(
		columnar.Field{Name: "bk", Type: columnar.Int64},
		columnar.Field{Name: "bk2", Type: columnar.Int64},
		columnar.Field{Name: "payload", Type: columnar.Int64},
	)
	f := func(probe, build []uint8, shape uint8) bool {
		key := func(x uint8) [2]int64 {
			switch shape % 3 {
			case 0:
				return [2]int64{int64(x % 16)}
			case 1:
				return [2]int64{int64(x%16) * 1000000007}
			default:
				return [2]int64{int64(x % 4), int64(x%3) * -1000000007}
			}
		}
		side := func(schema *columnar.Schema, xs []uint8) *columnar.Chunk {
			c := columnar.NewChunk(schema, len(xs))
			for i, x := range xs {
				k := key(x)
				c.Columns[0].AppendInt64(k[0])
				c.Columns[1].AppendInt64(k[1])
				c.Columns[2].AppendInt64(int64(i))
			}
			return c
		}
		plan := &JoinPlan{
			Left:     &ScanPlan{Table: "probe"},
			Right:    &ScanPlan{Table: "build"},
			LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
		}
		if shape%3 == 2 {
			plan.LeftKeys, plan.RightKeys = []string{"k", "k2"}, []string{"bk", "bk2"}
		}
		out, err := Execute(plan, Catalog{
			"probe": NewMemSource(probeSchema, side(probeSchema, probe).Split(int(shape/3)%4+1)...),
			"build": NewMemSource(buildSchema, side(buildSchema, build)),
		})
		if err != nil {
			return false
		}
		r := 0
		for i := range probe {
			for j := range build {
				if key(probe[i]) != key(build[j]) {
					continue
				}
				if r >= out.NumRows() || out.Column("row").Int64s[r] != int64(i) || out.Column("payload").Int64s[r] != int64(j) {
					return false
				}
				r++
			}
		}
		return r == out.NumRows()
	}
	// 150 cases, or 1.5 × -quickchecks (make fuzz-smoke's wider sweep).
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5}); err != nil {
		t.Error(err)
	}
}

// TestJoinKeyTypeRejected is the regression test for the seed kernel's
// silent int64 assumption: bool and float keys — on either side — are
// rejected with ErrJoinKey at OutSchema (planning) time instead of
// building a corrupt table or panicking at run time.
func TestJoinKeyTypeRejected(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "f", Type: columnar.Float64},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	right := columnar.NewSchema(
		columnar.Field{Name: "rk", Type: columnar.Int64},
		columnar.Field{Name: "rf", Type: columnar.Float64},
		columnar.Field{Name: "rb", Type: columnar.Bool},
	)
	cat := Catalog{
		"l": NewMemSource(schema, columnar.NewChunk(schema, 0)),
		"r": NewMemSource(right, columnar.NewChunk(right, 0)),
	}
	cases := []struct {
		name      string
		lk, rk    string
		wantTyped bool
	}{
		{"float-right", "k", "rf", true},
		{"bool-right", "k", "rb", true},
		{"float-left", "f", "rk", true},
		{"bool-left", "b", "rk", true},
		{"int64-ok", "k", "rk", false},
	}
	for _, tc := range cases {
		j := &JoinPlan{
			Left:     &ScanPlan{Table: "l"},
			Right:    &ScanPlan{Table: "r"},
			LeftKeys: []string{tc.lk}, RightKeys: []string{tc.rk},
		}
		if err := Resolve(j, cat); err != nil {
			t.Fatal(err)
		}
		_, err := j.OutSchema()
		if tc.wantTyped {
			if !errors.Is(err, ErrJoinKey) {
				t.Errorf("%s: OutSchema err = %v, want ErrJoinKey", tc.name, err)
			}
			// The executor surfaces the same typed error instead of
			// panicking at build time.
			if _, err := Execute(j, cat); !errors.Is(err, ErrJoinKey) {
				t.Errorf("%s: Execute err = %v, want ErrJoinKey", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}
	// Mismatched key-list lengths.
	bad := &JoinPlan{
		Left:     &ScanPlan{Table: "l"},
		Right:    &ScanPlan{Table: "r"},
		LeftKeys: []string{"k"}, RightKeys: []string{"rk", "rb"},
	}
	if err := Resolve(bad, cat); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.OutSchema(); err == nil {
		t.Error("mismatched key lists accepted")
	}
}

// countingSource counts how many chunks a scan actually yielded — the
// limit-pushdown regression instrument.
type countingSource struct {
	schema  *columnar.Schema
	chunks  []*columnar.Chunk
	yielded int
}

func (s *countingSource) Schema() (*columnar.Schema, error) { return s.schema, nil }

func (s *countingSource) Scan(proj []string, _ []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	for _, c := range s.chunks {
		s.yielded++
		if err := yield(c); err != nil {
			return err
		}
	}
	return nil
}

// TestLimitStopsScanEarly is the regression test for the old LimitPlan
// path that fully materialized its child before slicing: a LIMIT over a
// streamable pipeline must stop the scan once N rows arrived.
func TestLimitStopsScanEarly(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	var chunks []*columnar.Chunk
	for i := 0; i < 100; i++ {
		c := columnar.NewChunk(schema, 10)
		for j := 0; j < 10; j++ {
			c.Columns[0].AppendInt64(int64(i*10 + j))
		}
		chunks = append(chunks, c)
	}
	src := &countingSource{schema: schema, chunks: chunks}
	cat := Catalog{"t": src}
	plan := &LimitPlan{N: 25, In: &ScanPlan{Table: "t"}}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 25 {
		t.Fatalf("rows = %d, want 25", out.NumRows())
	}
	if c := out.Column("k").Cap(); c != 25 {
		t.Errorf("output capacity %d, want 25: the rows past the limit stay reachable", c)
	}
	for i := 0; i < 25; i++ {
		if out.Column("k").Int64s[i] != int64(i) {
			t.Fatalf("row %d = %d, want %d", i, out.Column("k").Int64s[i], i)
		}
	}
	if src.yielded >= 100 {
		t.Errorf("limit did not stop the scan: %d/100 chunks yielded", src.yielded)
	}
	if src.yielded != 3 {
		t.Errorf("serial limit yielded %d chunks, want 3 (25 rows / 10 per chunk)", src.yielded)
	}
}

// TestLimitParallelIdentity checks the streaming limit behind a filter
// against a scalar reference: the first 100 rows with k >= 50, in scan
// order.
func TestLimitParallelIdentity(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	var chunks []*columnar.Chunk
	for i := 0; i < 64; i++ {
		c := columnar.NewChunk(schema, 16)
		for j := 0; j < 16; j++ {
			c.Columns[0].AppendInt64(int64(i*16 + j))
			c.Columns[1].AppendFloat64(float64(i) * 0.5)
		}
		chunks = append(chunks, c)
	}
	plan := &LimitPlan{N: 100, In: &FilterPlan{
		Pred: NewBin(OpGE, Col("k"), ConstInt(50)),
		In:   &ScanPlan{Table: "t"},
	}}
	out, err := Execute(plan, Catalog{"t": NewMemSource(schema, chunks...)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100", out.NumRows())
	}
	for i := 0; i < 100; i++ {
		k := int64(50 + i)
		if got := out.Column("k").Int64s[i]; got != k {
			t.Fatalf("row %d k = %d, want %d", i, got, k)
		}
		if got, want := out.Column("v").Float64s[i], float64(k/16)*0.5; got != want {
			t.Fatalf("row %d v = %v, want %v", i, got, want)
		}
	}
}
