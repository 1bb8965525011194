package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// chunksIdentical asserts byte-identical results: same schema, same row
// order, float64 compared by bits.
func chunksIdentical(t *testing.T, got, want *columnar.Chunk) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema = %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for j := range want.Columns {
		g, w := got.Columns[j], want.Columns[j]
		for i := 0; i < want.NumRows(); i++ {
			switch w.Type {
			case columnar.Int64:
				if g.Int64s[i] != w.Int64s[i] {
					t.Fatalf("col %d row %d = %d, want %d", j, i, g.Int64s[i], w.Int64s[i])
				}
			case columnar.Float64:
				if math.Float64bits(g.Float64s[i]) != math.Float64bits(w.Float64s[i]) {
					t.Fatalf("col %d row %d = %x, want %x (values %v vs %v)",
						j, i, math.Float64bits(g.Float64s[i]), math.Float64bits(w.Float64s[i]), g.Float64s[i], w.Float64s[i])
				}
			case columnar.Bool:
				if g.Bools[i] != w.Bools[i] {
					t.Fatalf("col %d row %d = %v, want %v", j, i, g.Bools[i], w.Bools[i])
				}
			}
		}
	}
}

// chunkDigest is an FNV-64a digest of a chunk's schema and every value's
// bits, column by column: the suites below compare the executor's output
// against digests of the pipeline-parallel executor's output, recorded at
// 1 and 4 pipelines before it was deleted (the two agreed on every
// fixture).
func chunkDigest(c *columnar.Chunk) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range c.Schema.Fields {
		h.Write([]byte(f.Name))
		put(uint64(f.Type))
	}
	n := c.NumRows()
	put(uint64(n))
	for _, col := range c.Columns {
		for i := 0; i < n; i++ {
			switch col.Type {
			case columnar.Int64:
				put(uint64(col.Int64s[i]))
			case columnar.Float64:
				put(math.Float64bits(col.Float64s[i]))
			default:
				if col.Bools[i] {
					put(1)
				} else {
					put(0)
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// matchesRecorded asserts that out has the recorded row count and digest.
func matchesRecorded(t *testing.T, name string, out *columnar.Chunk, rows int, digest string) {
	t.Helper()
	if out.NumRows() != rows {
		t.Errorf("%s: rows = %d, want %d", name, out.NumRows(), rows)
	}
	if got := chunkDigest(out); got != digest {
		t.Errorf("%s: digest = %s, want %s", name, got, digest)
	}
}

// chunkedLineitem splits one generated table into many chunks so the
// parallel executor sees plenty of morsels.
func chunkedLineitem(t *testing.T, sf float64, rowsPerChunk int) (*MemSource, *columnar.Chunk) {
	t.Helper()
	data := tpch.Gen{SF: sf, Seed: 7}.Generate()
	var chunks []*columnar.Chunk
	for lo := 0; lo < data.NumRows(); lo += rowsPerChunk {
		hi := lo + rowsPerChunk
		if hi > data.NumRows() {
			hi = data.NumRows()
		}
		chunks = append(chunks, data.Slice(lo, hi))
	}
	return NewMemSource(tpch.Schema(), chunks...), data
}

// TestParallelMatchesSerialByteIdentical: every plan shape produces, bit
// for bit, the output recorded from the pipeline-parallel executor, whatever
// pipeline count it is asked for.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	src, _ := chunkedLineitem(t, 0.01, 1000)
	cat := Catalog{"lineitem": src}

	plans := []struct {
		name   string
		plan   Plan
		rows   int
		digest string
	}{
		{"q1", q1Plan(), 4, "596da4ba85d486e6"}, // two-key group by, 8 aggregates, order by
		{"q6", q6Plan(), 1, "854b3139c2641b53"}, // global float aggregate behind a filter
		{"single-int64-key", &AggregatePlan{
			GroupBy: []string{"l_suppkey"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("l_extendedprice"), Name: "s"},
				{Func: AggCount, Name: "n"},
				{Func: AggMin, Arg: Col("l_quantity"), Name: "mn"},
				{Func: AggMax, Arg: Col("l_quantity"), Name: "mx"},
				{Func: AggAvg, Arg: Col("l_discount"), Name: "av"},
			},
			In: &ScanPlan{Table: "lineitem"},
		}, 100, "15b71fbe07aae008"},
		{"filter-project", &ProjectPlan{
			Exprs: []Expr{Col("l_orderkey"), NewBin(OpMul, Col("l_extendedprice"), Col("l_discount"))},
			Names: []string{"k", "v"},
			In: &FilterPlan{
				Pred: NewBin(OpLT, Col("l_quantity"), ConstFloat(25)),
				In:   &ScanPlan{Table: "lineitem"},
			},
		}, 28680, "63737347b9d7fd35"},
		{"order-by-limit", &LimitPlan{N: 100, In: &OrderByPlan{
			Keys: []OrderKey{{Column: "l_extendedprice", Desc: true}},
			In: &FilterPlan{
				Pred: NewBin(OpLT, Col("l_suppkey"), ConstInt(50)),
				In:   &ScanPlan{Table: "lineitem"},
			},
		}}, 100, "f7c58a023c46d416"},
	}
	// ParallelConfig has no effect: every pipeline count gives the record.
	for _, tc := range plans {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				out, err := ExecuteParallel(tc.plan, cat, ParallelConfig{Pipelines: workers})
				if err != nil {
					t.Fatal(err)
				}
				matchesRecorded(t, tc.name, out, tc.rows, tc.digest)
			})
		}
	}
}

func TestParallelAggregatePartitionsAndTies(t *testing.T) {
	// ≥4 distinct partitions with heavy ties: key column cycles 0..4.
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	var chunks []*columnar.Chunk
	rows := 0
	for c := 0; c < 16; c++ {
		ch := columnar.NewChunk(schema, 64)
		for i := 0; i < 64; i++ {
			ch.Columns[0].AppendInt64(int64(rows % 5))
			ch.Columns[1].AppendFloat64(float64(rows) * 0.25)
			rows++
		}
		chunks = append(chunks, ch)
	}
	cat := Catalog{"t": NewMemSource(schema, chunks...)}
	mk := func() Plan {
		return &AggregatePlan{
			GroupBy: []string{"k"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("v"), Name: "s"},
				{Func: AggCount, Name: "n"},
			},
			In: &ScanPlan{Table: "t"},
		}
	}
	out, err := Execute(mk(), cat)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar reference: every value is a multiple of 0.25 far below 2^53,
	// so the sums are exact in any order.
	var sums [5]float64
	var counts [5]int64
	for r := 0; r < rows; r++ {
		sums[r%5] += float64(r) * 0.25
		counts[r%5]++
	}
	if out.NumRows() != 5 {
		t.Fatalf("groups = %d, want 5", out.NumRows())
	}
	// First-seen order: keys 0,1,2,3,4.
	for i := 0; i < 5; i++ {
		if got := out.Column("k").Int64s[i]; got != int64(i) {
			t.Fatalf("group %d key = %d (first-seen order broken)", i, got)
		}
		if got := out.Column("s").Float64s[i]; got != sums[i] {
			t.Errorf("group %d sum = %v, want %v", i, got, sums[i])
		}
		if got := out.Column("n").Int64s[i]; got != counts[i] {
			t.Errorf("group %d count = %d, want %d", i, got, counts[i])
		}
	}
}

func TestParallelEmptyInput(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	cat := Catalog{"t": NewMemSource(schema)}

	// Grouped aggregate over empty input: zero rows.
	grouped := &AggregatePlan{
		GroupBy: []string{"k"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "n"}},
		In:      &ScanPlan{Table: "t"},
	}
	out, err := Execute(grouped, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Errorf("grouped empty input rows = %d, want 0", out.NumRows())
	}

	// Global aggregate over empty input: one zero row.
	global := &AggregatePlan{
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}, {Func: AggSum, Arg: Col("k"), Name: "s"}},
		In:   &ScanPlan{Table: "t"},
	}
	out, err = Execute(global, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column("n").Int64s[0] != 0 || out.Column("s").Int64s[0] != 0 {
		t.Errorf("global empty input = %d rows, n = %v, s = %v", out.NumRows(), out.Column("n").Int64s, out.Column("s").Int64s)
	}
}

// goroutineProbe is a MemSource that records runtime.NumGoroutine() at
// every chunk it yields.
type goroutineProbe struct {
	*MemSource
	counts *[]int
}

func (s *goroutineProbe) Scan(proj []string, prune []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return s.MemSource.Scan(proj, prune, func(c *columnar.Chunk) error {
		*s.counts = append(*s.counts, runtime.NumGoroutine())
		return yield(c)
	})
}

// TestExecuteSpawnsNoGoroutines: the executor runs every pipeline on the
// caller's goroutine, whatever GOMAXPROCS and whatever ParallelConfig says —
// the goroutine count seen at every morsel of q1 and of a join whose build
// side's key table takes the hashed mode is the count before the call.
func TestExecuteSpawnsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var counts []int
	probed := func(m *MemSource) Source { return &goroutineProbe{MemSource: m, counts: &counts} }

	li, _ := chunkedLineitem(t, 0.002, 500)
	sparse := make([]int64, 2000)
	for i := range sparse {
		sparse[i] = int64(i) * 1000000007
	}
	build := makeBuild(sparse, 1, false)
	// The key table's mode is unexported in columnar; reflect reads it.
	if reflect.ValueOf(buildJoinTable(build, []int{0}).keys).FieldByName("dense").Bool() {
		t.Fatal("build side key table is dense, want the hashed mode")
	}
	probe := makeProbe(6000, 3000, 1000000007)
	cases := []struct {
		name string
		plan func() Plan
		cat  Catalog
	}{
		{"q1", q1Plan, Catalog{"lineitem": probed(li)}},
		{"hashed-join", func() Plan {
			return &JoinPlan{
				Left:     &ScanPlan{Table: "probe"},
				Right:    &ScanPlan{Table: "build"},
				LeftKeys: []string{"k"}, RightKeys: []string{"bk"},
			}
		}, Catalog{
			"probe": probed(chunked(probe.Schema, probe, 300)),
			"build": probed(NewMemSource(build.Schema, build)),
		}},
	}
	execs := []struct {
		name string
		run  func(Plan, Catalog) (*columnar.Chunk, error)
	}{
		{"Execute", Execute},
		{"ExecuteParallel", func(p Plan, cat Catalog) (*columnar.Chunk, error) {
			return ExecuteParallel(p, cat, ParallelConfig{Pipelines: 4})
		}},
	}
	for _, tc := range cases {
		for _, ex := range execs {
			counts = counts[:0]
			before := runtime.NumGoroutine()
			if _, err := ex.run(tc.plan(), tc.cat); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, ex.name, err)
			}
			if len(counts) == 0 {
				t.Fatalf("%s/%s: no morsel yielded", tc.name, ex.name)
			}
			for i, n := range counts {
				if n != before {
					t.Errorf("%s/%s: %d goroutines at morsel %d, %d before the call", tc.name, ex.name, n, i, before)
					break
				}
			}
		}
	}
}

// errSource yields a few chunks, then fails.
type errSource struct {
	schema *columnar.Schema
	good   []*columnar.Chunk
	err    error
}

func (s *errSource) Schema() (*columnar.Schema, error) { return s.schema, nil }

func (s *errSource) Scan(proj []string, _ []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	for _, c := range s.good {
		if err := yield(c); err != nil {
			return err
		}
	}
	return s.err
}

func TestParallelCancelOnError(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	var chunks []*columnar.Chunk
	for i := 0; i < 32; i++ {
		ch := columnar.NewChunk(schema, 8)
		for j := 0; j < 8; j++ {
			ch.Columns[0].AppendInt64(int64(j))
		}
		chunks = append(chunks, ch)
	}
	boom := errors.New("boom")
	cat := Catalog{"t": &errSource{schema: schema, good: chunks, err: boom}}
	plan := &AggregatePlan{
		GroupBy: []string{"k"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "n"}},
		In:      &ScanPlan{Table: "t"},
	}
	if _, err := Execute(plan, cat); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	// A mid-pipeline expression error must cancel the scan, not hang.
	badPlan := &AggregatePlan{
		Aggs: []AggSpec{{Func: AggSum, Arg: Col("missing"), Name: "s"}},
		In:   &ScanPlan{Table: "t"},
	}
	if _, err := Execute(badPlan, cat); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want unknown-column error", err)
	}
}

// TestParallelJoinByteIdentical: a join with a tiny build side produces, bit
// for bit, the output recorded from the pipeline-parallel executor.
func TestParallelJoinByteIdentical(t *testing.T) {
	src, _ := chunkedLineitem(t, 0.002, 500)
	small := columnar.NewChunk(columnar.NewSchema(
		columnar.Field{Name: "s_suppkey", Type: columnar.Int64},
		columnar.Field{Name: "s_name", Type: columnar.Int64},
	), 4)
	for i := 0; i < 4; i++ {
		small.Columns[0].AppendInt64(int64(i + 1))
		small.Columns[1].AppendInt64(int64(100 + i))
	}
	cat := Catalog{
		"lineitem": src,
		"supplier": NewMemSource(small.Schema, small),
	}
	out, err := Execute(&JoinPlan{
		Left:      &ScanPlan{Table: "lineitem"},
		Right:     &ScanPlan{Table: "supplier"},
		LeftKeys:  []string{"l_suppkey"},
		RightKeys: []string{"s_suppkey"},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	matchesRecorded(t, "lineitem-supplier", out, 2359, "b187933c665f5d2f")
}

func TestSortChunkInt64PrecisionRegression(t *testing.T) {
	// Keys adjacent near MaxInt64 are indistinguishable as float64; the
	// sort must compare them as int64, across the morsels it collected.
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 4)
	hi := int64(math.MaxInt64)
	for _, k := range []int64{hi - 1, hi, hi - 2, hi - 3} {
		c.Columns[0].AppendInt64(k)
	}
	sortBy := func(desc bool) *columnar.Chunk {
		t.Helper()
		out, err := Execute(&OrderByPlan{Keys: []OrderKey{{Column: "k", Desc: desc}}, In: &ScanPlan{Table: "t"}},
			Catalog{"t": NewMemSource(schema, c.Split(2)...)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sorted := sortBy(false)
	want := []int64{hi - 3, hi - 2, hi - 1, hi}
	for i, w := range want {
		if got := sorted.Column("k").Int64s[i]; got != w {
			t.Fatalf("row %d = %d, want %d (float64 key comparison lost precision)", i, got, w)
		}
	}
	desc := sortBy(true)
	for i, w := range []int64{hi, hi - 1, hi - 2, hi - 3} {
		if got := desc.Column("k").Int64s[i]; got != w {
			t.Fatalf("desc row %d = %d, want %d", i, got, w)
		}
	}
}

func TestAggregateGroupKeysBeyondFloat53(t *testing.T) {
	// Group keys that collide as float64 must stay distinct groups.
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 6)
	base := int64(1) << 60
	for _, k := range []int64{base, base + 1, base, base + 1, base + 2, base} {
		c.Columns[0].AppendInt64(k)
	}
	cat := Catalog{"t": NewMemSource(schema, c)}
	plan := &AggregatePlan{
		GroupBy: []string{"k"},
		Aggs:    []AggSpec{{Func: AggCount, Name: "n"}},
		In:      &ScanPlan{Table: "t"},
	}
	out, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	wantKeys := []int64{base, base + 1, base + 2}
	wantN := []int64{3, 2, 1}
	for i := range wantKeys {
		if out.Column("k").Int64s[i] != wantKeys[i] || out.Column("n").Int64s[i] != wantN[i] {
			t.Fatalf("group %d = (%d, %d), want (%d, %d)",
				i, out.Column("k").Int64s[i], out.Column("n").Int64s[i], wantKeys[i], wantN[i])
		}
	}
}
