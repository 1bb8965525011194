package engine

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

func TestPlanJSONRoundTripQ1(t *testing.T) {
	src := NewMemSource(tpch.Schema(), tpch.Gen{SF: 0.001, Seed: 3}.Generate())
	cat := Catalog{"lineitem": src}
	plan, err := Optimize(q1Plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if Explain(back) != Explain(plan) {
		t.Errorf("explain mismatch:\n%s\nvs\n%s", Explain(back), Explain(plan))
	}
	// Both must produce identical results.
	a, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(back, cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	for j := range a.Columns {
		for i := 0; i < a.NumRows(); i++ {
			if av, bv := a.Columns[j].Float64At(i), b.Columns[j].Float64At(i); math.Abs(av-bv) > 1e-9*math.Max(1, math.Abs(av)) {
				t.Fatalf("col %d row %d differ: %v vs %v", j, i, av, bv)
			}
		}
	}
}

func TestPlanJSONInfinitePruneBounds(t *testing.T) {
	scan := &ScanPlan{Table: "t", TableSchema: tpch.Schema()}
	plan, err := Optimize(&FilterPlan{
		Pred: And(NewBin(OpLE, Col("l_shipdate"), ConstInt(100)), NewBin(OpGE, Col("l_quantity"), ConstFloat(5))),
		In:   scan,
	}, Catalog{"t": NewMemSource(tpch.Schema())})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	bs := back.(*ScanPlan)
	if !math.IsInf(bs.Prune[0].Min, -1) || bs.Prune[0].Max != 100 {
		t.Errorf("prune[0] = %+v", bs.Prune[0])
	}
	if bs.Prune[1].Min != 5 || !math.IsInf(bs.Prune[1].Max, 1) {
		t.Errorf("prune[1] = %+v", bs.Prune[1])
	}
}

// TestPlanJSONPrunesLikeThePlanner: a scan decoded from plan JSON prunes the
// same row groups and pages as the optimized plan it was encoded from, with
// the exact integer bounds: over BIGINT keys beyond 2^53, whose float mirrors
// collapse, and for a strict < at a page's minimum, which a float bound
// admits.
func TestPlanJSONPrunesLikeThePlanner(t *testing.T) {
	for _, base := range []int64{0, 1 << 62} {
		schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
		c := columnar.NewChunk(schema, 64)
		for i := range int64(64) {
			c.Columns[0].AppendInt64(base + i)
		}
		var buf bytes.Buffer
		w := lpq.NewWriter(&buf, schema, lpq.WriterOptions{RowGroupRows: 8, PageRows: 4})
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := lpq.OpenReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		meta := r.Meta()
		plan, err := Optimize(&FilterPlan{Pred: NewBin(OpLT, Col("k"), ConstInt(base+4)), In: &ScanPlan{Table: "t"}},
			Catalog{"t": NewMemSource(schema)})
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalPlan(data)
		if err != nil {
			t.Fatal(err)
		}
		want, got := plan.(*ScanPlan).Prune, back.(*ScanPlan).Prune
		groups := lpq.PruneRowGroups(meta, want)
		if !reflect.DeepEqual(groups, []int{0}) {
			t.Fatalf("k < %d: the optimized plan keeps row groups %v, want [0] — test has no teeth", base+4, groups)
		}
		if g := lpq.PruneRowGroups(meta, got); !reflect.DeepEqual(g, groups) {
			t.Errorf("k < %d: decoded plan keeps row groups %v, the optimized one %v", base+4, g, groups)
		}
		pages := lpq.PrunePages(meta, 0, want)
		if !reflect.DeepEqual(pages, []bool{true, false}) {
			t.Fatalf("k < %d: the optimized plan keeps pages %v of group 0, want [true false] — test has no teeth", base+4, pages)
		}
		if p := lpq.PrunePages(meta, 0, got); !reflect.DeepEqual(p, pages) {
			t.Errorf("k < %d: decoded plan keeps pages %v of group 0, the optimized one %v", base+4, p, pages)
		}
	}
}

func TestPlanJSONAllNodeKinds(t *testing.T) {
	plan := &LimitPlan{
		N: 3,
		In: &OrderByPlan{
			Keys: []OrderKey{{Column: "y", Desc: true}},
			In: &ProjectPlan{
				Exprs: []Expr{&Not{E: NewBin(OpGT, Col("x"), ConstFloat(1.5))}},
				Names: []string{"y"},
				In: &FilterPlan{
					Pred: NewBin(OpNE, Col("x"), ConstInt(0)),
					In:   &ScanPlan{Table: "t"},
				},
			},
		},
	}
	data, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if Explain(back) != Explain(plan) {
		t.Errorf("mismatch:\n%s\nvs\n%s", Explain(back), Explain(plan))
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPlan([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := UnmarshalPlan([]byte(`{"kind":"mystery"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := UnmarshalPlan([]byte(`{"kind":"filter"}`)); err == nil {
		t.Error("filter without input accepted")
	}
}

// TestPlanJSONStageFragmentShapes round-trips the fragment shapes the
// stage planner emits: a partial aggregate over a join of two boundary
// scans (multi-column keys, resolved schemas) and a final merge with the
// AVG-recombining projection.
func TestPlanJSONStageFragmentShapes(t *testing.T) {
	boundary := func(table string, fields ...columnar.Field) *ScanPlan {
		return &ScanPlan{Table: table, TableSchema: columnar.NewSchema(fields...)}
	}
	joinStage := &AggregatePlan{
		GroupBy: []string{"g"},
		Aggs: []AggSpec{
			{Func: AggCount, Name: "__p0_cnt_n"},
			{Func: AggSum, Arg: Col("v"), Name: "__p1_sum_s"},
		},
		In: &JoinPlan{
			Left: boundary("__stage0",
				columnar.Field{Name: "k1", Type: columnar.Int64},
				columnar.Field{Name: "k2", Type: columnar.Int64},
				columnar.Field{Name: "v", Type: columnar.Float64},
			),
			Right: boundary("__stage1",
				columnar.Field{Name: "r1", Type: columnar.Int64},
				columnar.Field{Name: "r2", Type: columnar.Int64},
				columnar.Field{Name: "g", Type: columnar.Int64},
			),
			LeftKeys:  []string{"k1", "k2"},
			RightKeys: []string{"r1", "r2"},
		},
	}
	finalStage := &ProjectPlan{
		Exprs: []Expr{Col("g"), Col("__p0_cnt_n"), NewBin(OpDiv, Col("__p1_sum_s"), Col("__p0_cnt_n"))},
		Names: []string{"g", "n", "avg_v"},
		In: &AggregatePlan{
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: Col("__p0_cnt_n"), Name: "__p0_cnt_n"},
				{Func: AggSum, Arg: Col("__p1_sum_s"), Name: "__p1_sum_s"},
			},
			In: boundary("__stage2",
				columnar.Field{Name: "g", Type: columnar.Int64},
				columnar.Field{Name: "__p0_cnt_n", Type: columnar.Int64},
				columnar.Field{Name: "__p1_sum_s", Type: columnar.Float64},
			),
		},
	}
	for _, frag := range []Plan{joinStage, finalStage} {
		raw, err := MarshalPlan(frag)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalPlan(raw)
		if err != nil {
			t.Fatal(err)
		}
		raw2, err := MarshalPlan(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Fatalf("fragment round trip differs:\n%s\n%s", raw, raw2)
		}
		ws, err := frag.OutSchema()
		if err != nil {
			t.Fatal(err)
		}
		bs, err := back.OutSchema()
		if err != nil {
			t.Fatal(err)
		}
		if !ws.Equal(bs) {
			t.Fatalf("schema after round trip = %v, want %v", bs, ws)
		}
	}
}
