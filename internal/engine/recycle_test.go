package engine

import (
	"math"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// recyclingSource serves a MemSource's rows as chunks it owns — a fresh copy
// of each, filtered when the plan pushes a filter into the scan, as the S3
// scan's are — and takes them back through Recycle. It fails the test on a
// chunk handed back that it never yielded or that came back twice. With
// garble set, Recycle overwrites every value of the chunk, so a consumer
// that still read it would return garbage.
type recyclingSource struct {
	t      *testing.T
	mem    *MemSource
	garble bool

	out      map[*columnar.Chunk]bool // yielded and not back yet
	yielded  int
	recycled int
	// held is the most chunks still out when a yield returned: 0 when every
	// morsel came back before the scan went on to the next.
	held int
}

func newRecyclingSource(t *testing.T, mem *MemSource, garble bool) *recyclingSource {
	return &recyclingSource{t: t, mem: mem, garble: garble, out: map[*columnar.Chunk]bool{}}
}

func (s *recyclingSource) Schema() (*columnar.Schema, error) { return s.mem.Schema() }

func (s *recyclingSource) Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return s.ScanFiltered(proj, preds, nil, yield)
}

func (s *recyclingSource) ScanFiltered(proj []string, preds []lpq.Predicate, filter Expr, yield func(*columnar.Chunk) error) error {
	return s.mem.Scan(proj, preds, func(c *columnar.Chunk) error {
		own := columnar.NewChunk(c.Schema, c.NumRows())
		if filter == nil {
			own.AppendChunk(c)
		} else {
			sel, err := FilterSelection(c, filter, nil, nil)
			if err != nil {
				return err
			}
			own.AppendGather(c, sel)
		}
		s.out[own] = true
		s.yielded++
		if err := yield(own); err != nil {
			return err
		}
		s.held = max(s.held, len(s.out))
		return nil
	})
}

// rowCountingSource is a recyclingSource that counts its rows up front
// (RowCounter), with no bound: every row its chunks hold, whatever preds.
type rowCountingSource struct{ *recyclingSource }

func (s rowCountingSource) Rows([]lpq.Predicate, int64) (int64, bool) {
	var n int64
	for _, c := range s.mem.Chunks {
		n += int64(c.NumRows())
	}
	return n, true
}

func (s *recyclingSource) Recycle(c *columnar.Chunk) {
	if !s.out[c] {
		s.t.Errorf("Recycle of a chunk that is not out: never yielded, or handed back twice")
		return
	}
	delete(s.out, c)
	s.recycled++
	if !s.garble {
		return
	}
	for _, v := range c.Columns {
		for i := range v.Int64s {
			v.Int64s[i] = math.MinInt64 + int64(i)
		}
		for i := range v.Float64s {
			v.Float64s[i] = math.NaN()
		}
		for i := range v.Bools {
			v.Bools[i] = !v.Bools[i]
		}
	}
}

// TestRecycleContract: an aggregate pipeline hands every chunk its scan
// yielded back exactly once, before the scan yields the next, and so does a
// collect or sort that keeps every row its scan yields — a join's build side
// too — when the source counts them (counts); any other collect, sort or
// limit, and a pipeline fed by an upstream breaker, hands back none.
func TestRecycleContract(t *testing.T) {
	g := tpch.Gen{SF: 0.002, Seed: 13}
	li, sup := g.Generate(), g.Supplier()
	liMem := chunked(tpch.Schema(), li, 500)
	supMem := chunked(tpch.SupplierSchema(), sup, 4)
	scan := func() Plan { return &ScanPlan{Table: "lineitem"} }
	for _, tc := range []struct {
		name    string
		plan    Plan
		liBack  bool // every lineitem chunk comes back
		counts  bool // both sources count their rows (rowCountingSource)
		supBack bool // every supplier chunk comes back
	}{
		{"aggregate", &AggregatePlan{GroupBy: []string{"l_suppkey"}, Aggs: []AggSpec{{Func: AggCount, Name: "n"}}, In: scan()}, true, false, false},
		{"q1", q1Plan(), true, false, false},
		{"q6", q6Plan(), true, false, false},
		{"join-under-aggregate", revenueByNationPlan(), true, false, false},
		{"collect", &FilterPlan{Pred: NewBin(OpLT, Col("l_quantity"), ConstFloat(25)), In: scan()}, false, false, false},
		{"sort", &OrderByPlan{Keys: []OrderKey{{Column: "l_orderkey"}}, In: scan()}, false, false, false},
		{"limit", &LimitPlan{N: 700, In: scan()}, false, false, false},
		{"join-collect", &JoinPlan{Left: scan(), Right: &ScanPlan{Table: "supplier"}, LeftKeys: []string{"l_suppkey"}, RightKeys: []string{"s_suppkey"}}, false, false, false},
		{"aggregate-over-breaker", &AggregatePlan{Aggs: []AggSpec{{Func: AggCount, Name: "n"}}, In: &LimitPlan{N: 1 << 30, In: scan()}}, false, false, false},
		{"counted-collect", scan(), true, true, false},
		{"counted-sort", &OrderByPlan{Keys: []OrderKey{{Column: "l_orderkey"}}, In: scan()}, true, true, false},
		{"counted-join-collect", &JoinPlan{Left: scan(), Right: &ScanPlan{Table: "supplier"}, LeftKeys: []string{"l_suppkey"}, RightKeys: []string{"s_suppkey"}}, false, true, true},
		{"counted-filtered-collect", &FilterPlan{Pred: NewBin(OpLT, Col("l_quantity"), ConstFloat(25)), In: scan()}, false, true, false},
		{"counted-limit", &LimitPlan{N: 700, In: scan()}, false, true, false},
		{"counted-join-under-aggregate", revenueByNationPlan(), true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, sups := newRecyclingSource(t, liMem, false), newRecyclingSource(t, supMem, false)
			cat := Catalog{"lineitem": lis, "supplier": sups}
			if tc.counts {
				cat = Catalog{"lineitem": rowCountingSource{lis}, "supplier": rowCountingSource{sups}}
			}
			p, err := Optimize(tc.plan, cat)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(p, cat); err != nil {
				t.Fatal(err)
			}
			if lis.yielded == 0 {
				t.Fatal("the scan yielded nothing — test has no teeth")
			}
			lis.handedBack(t, "lineitem", tc.liBack)
			sups.handedBack(t, "supplier", tc.supBack)
		})
	}
}

// handedBack checks that every chunk s yielded came back, each before the
// next was yielded (all), or that none did.
func (s *recyclingSource) handedBack(t *testing.T, table string, all bool) {
	t.Helper()
	switch {
	case !all && s.recycled != 0:
		t.Errorf("%s: handed back %d of %d chunks, want 0", table, s.recycled, s.yielded)
	case all && s.yielded < 2:
		t.Errorf("%s: yielded %d chunks — test has no teeth", table, s.yielded)
	case all && (s.recycled != s.yielded || s.held != 0):
		t.Errorf("%s: handed back %d of %d chunks, %d still out when a yield returned; want all, each before the next", table, s.recycled, s.yielded, s.held)
	}
}

// TestRecycledChunksAreNotReadAgain: a source that overwrites every chunk
// handed back to it gives results byte-identical to a source that keeps its
// chunks, so nothing reads a morsel after the sink has folded or copied it.
// The counted plans run on sources that count their rows, so that their
// collects copy and hand back their morsels too.
func TestRecycledChunksAreNotReadAgain(t *testing.T) {
	g := tpch.Gen{SF: 0.002, Seed: 13}
	li, sup := g.Generate(), g.Supplier()
	liMem := chunked(tpch.Schema(), li, 500)
	supMem := chunked(tpch.SupplierSchema(), sup, 4)
	join := func() Plan {
		return &JoinPlan{Left: &ScanPlan{Table: "lineitem"}, Right: &ScanPlan{Table: "supplier"}, LeftKeys: []string{"l_suppkey"}, RightKeys: []string{"s_suppkey"}}
	}
	for name, plan := range map[string]func() Plan{
		"q1":                           q1Plan,
		"q6":                           q6Plan,
		"join-under-aggregate":         revenueByNationPlan,
		"counted-collect":              func() Plan { return &ScanPlan{Table: "lineitem"} },
		"counted-join-collect":         join,
		"counted-join-under-aggregate": revenueByNationPlan,
	} {
		t.Run(name, func(t *testing.T) {
			run := func(cat Catalog) *columnar.Chunk {
				p, err := Optimize(plan(), cat)
				if err != nil {
					t.Fatal(err)
				}
				out, err := Execute(p, cat)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(Catalog{"lineitem": liMem, "supplier": supMem})
			lis, sups := newRecyclingSource(t, liMem, true), newRecyclingSource(t, supMem, true)
			cat := Catalog{"lineitem": lis, "supplier": sups}
			if strings.HasPrefix(name, "counted-") {
				cat = Catalog{"lineitem": rowCountingSource{lis}, "supplier": rowCountingSource{sups}}
			}
			got := run(cat)
			if lis.recycled+sups.recycled == 0 {
				t.Fatal("nothing was handed back — test has no teeth")
			}
			chunksIdentical(t, got, want)
		})
	}
}

// TestAggSinkResetsItsPartial: the aggregate sink's one partial builder,
// reset between morsels, folds a dense-keyed morsel, then a wide-keyed one
// (the hash-map path), then a dense one again exactly as a fresh builder per
// morsel does — for a single key and for two.
func TestAggSinkResetsItsPartial(t *testing.T) {
	in := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	morsel := func(keys []int64) *columnar.Chunk {
		c := columnar.NewChunk(in, len(keys))
		for i, k := range keys {
			c.Columns[0].AppendInt64(k)
			c.Columns[1].AppendInt64(int64(i % 3))
			c.Columns[2].AppendFloat64(float64(i)*0.25 + float64(k%7))
		}
		return c
	}
	var dense, again, wide []int64
	for i := int64(0); i < 40; i++ {
		dense = append(dense, i%10)
		again = append(again, 9-i%12)
		wide = append(wide, (i%6)*(1<<40)+i%4)
	}
	morsels := []*columnar.Chunk{morsel(dense), morsel(wide), morsel(again)}
	aggs := []AggSpec{
		{Func: AggSum, Arg: Col("v"), Name: "s"},
		{Func: AggCount, Name: "n"},
		{Func: AggMin, Arg: Col("v"), Name: "mn"},
		{Func: AggMax, Arg: Col("v"), Name: "mx"},
	}
	for _, keys := range [][]string{{"k"}, {"k", "k2"}} {
		p := &AggregatePlan{GroupBy: keys, Aggs: aggs, In: &ScanPlan{Table: "t", TableSchema: in}}
		out, err := p.OutSchema()
		if err != nil {
			t.Fatal(err)
		}

		master, err := newAggBuilder(p, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range morsels {
			fresh, _ := newAggBuilder(p, in)
			if err := fresh.addChunk(c, nil); err != nil {
				t.Fatal(err)
			}
			master.mergeFrom(fresh)
		}
		want, _ := master.finalize(out)

		sk, _, err := newSink(&pnode{agg: p, aggIn: in, outSchema: out})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range morsels {
			if _, err := sk.add(c, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, err := sk.finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() < 20 {
			t.Fatalf("keys %v: %d groups — test has no teeth", keys, got.NumRows())
		}
		chunksIdentical(t, got, want)
	}
}

// TestColdSelectionIsExactSize: a selection built without scratch to reuse
// is one slice of exactly the passing rows' count, not one grown by append.
func TestColdSelectionIsExactSize(t *testing.T) {
	data := tpch.Gen{SF: 0.001, Seed: 3}.Generate()
	sel, err := FilterSelection(data, NewBin(OpLT, Col("l_quantity"), ConstFloat(24)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) == data.NumRows() {
		t.Fatalf("predicate selects %d of %d rows — test has no teeth", len(sel), data.NumRows())
	}
	if cap(sel) != len(sel) {
		t.Errorf("cold selection of %d rows has capacity %d, want exactly %d", len(sel), cap(sel), len(sel))
	}
}
