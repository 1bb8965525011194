package engine

import (
	"math"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

func joinCatalog(t *testing.T, sf float64) (Catalog, *columnar.Chunk, *columnar.Chunk) {
	t.Helper()
	g := tpch.Gen{SF: sf, Seed: 13}
	li := g.Generate()
	sup := g.Supplier()
	return Catalog{
		"lineitem": NewMemSource(tpch.Schema(), li),
		"supplier": NewMemSource(tpch.SupplierSchema(), sup),
	}, li, sup
}

// revenueByNationPlan joins LINEITEM with SUPPLIER and aggregates revenue
// per nation — the canonical broadcast-join shape.
func revenueByNationPlan() Plan {
	return &OrderByPlan{
		Keys: []OrderKey{{Column: "s_nationkey"}},
		In: &AggregatePlan{
			GroupBy: []string{"s_nationkey"},
			Aggs: []AggSpec{
				{Func: AggSum, Arg: NewBin(OpMul, Col("l_extendedprice"), NewBin(OpSub, ConstFloat(1), Col("l_discount"))), Name: "revenue"},
				{Func: AggCount, Name: "n"},
			},
			In: &JoinPlan{
				Left:     &ScanPlan{Table: "lineitem"},
				Right:    &ScanPlan{Table: "supplier"},
				LeftKey:  "l_suppkey",
				RightKey: "s_suppkey",
			},
		},
	}
}

// scalarRevenueByNation is the reference implementation.
func scalarRevenueByNation(li, sup *columnar.Chunk) (map[int64]float64, map[int64]int64) {
	nation := map[int64]int64{}
	for i := 0; i < sup.NumRows(); i++ {
		nation[sup.Column("s_suppkey").Int64s[i]] = sup.Column("s_nationkey").Int64s[i]
	}
	rev := map[int64]float64{}
	cnt := map[int64]int64{}
	supk := li.Column("l_suppkey").Int64s
	price := li.Column("l_extendedprice").Float64s
	disc := li.Column("l_discount").Float64s
	for i := range supk {
		nk, ok := nation[supk[i]]
		if !ok {
			continue
		}
		rev[nk] += price[i] * (1 - disc[i])
		cnt[nk]++
	}
	return rev, cnt
}

func TestHashJoinMatchesScalar(t *testing.T) {
	cat, li, sup := joinCatalog(t, 0.002)
	out, err := Execute(revenueByNationPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	rev, cnt := scalarRevenueByNation(li, sup)
	if out.NumRows() != len(rev) {
		t.Fatalf("nations = %d, want %d", out.NumRows(), len(rev))
	}
	for i := 0; i < out.NumRows(); i++ {
		nk := out.Column("s_nationkey").Int64s[i]
		if got, want := out.Column("revenue").Float64s[i], rev[nk]; math.Abs(got-want) > 1e-6*want {
			t.Errorf("nation %d revenue = %v, want %v", nk, got, want)
		}
		if got := out.Column("n").Int64s[i]; got != cnt[nk] {
			t.Errorf("nation %d count = %d, want %d", nk, got, cnt[nk])
		}
	}
}

func TestJoinSchemaAndErrors(t *testing.T) {
	cat, _, _ := joinCatalog(t, 0.001)
	j := &JoinPlan{
		Left:     &ScanPlan{Table: "lineitem"},
		Right:    &ScanPlan{Table: "supplier"},
		LeftKey:  "l_suppkey",
		RightKey: "s_suppkey",
	}
	if err := Resolve(j, cat); err != nil {
		t.Fatal(err)
	}
	s, err := j.OutSchema()
	if err != nil {
		t.Fatal(err)
	}
	// Left columns + right columns minus the right key.
	if s.Len() != tpch.Schema().Len()+tpch.SupplierSchema().Len()-1 {
		t.Errorf("joined schema has %d columns", s.Len())
	}
	if s.Index("s_suppkey") >= 0 {
		t.Error("right key duplicated in output")
	}
	if s.Index("s_nationkey") < 0 {
		t.Error("right payload column missing")
	}
	// Bad keys.
	bad := &JoinPlan{Left: j.Left, Right: j.Right, LeftKey: "nope", RightKey: "s_suppkey"}
	if _, err := bad.OutSchema(); err == nil {
		t.Error("bad left key accepted")
	}
	bad = &JoinPlan{Left: j.Left, Right: j.Right, LeftKey: "l_suppkey", RightKey: "nope"}
	if _, err := bad.OutSchema(); err == nil {
		t.Error("bad right key accepted")
	}
}

func TestJoinFilterPushdownThroughJoin(t *testing.T) {
	cat, li, sup := joinCatalog(t, 0.002)
	// A filter below the join on the probe side must reach the scan.
	plan := &AggregatePlan{
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}},
		In: &JoinPlan{
			Left: &FilterPlan{
				Pred: NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
				In:   &ScanPlan{Table: "lineitem"},
			},
			Right:    &ScanPlan{Table: "supplier"},
			LeftKey:  "l_suppkey",
			RightKey: "s_suppkey",
		},
	}
	opt, err := Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	explained := Explain(opt)
	if strings.Contains(explained, "Filter") {
		t.Errorf("probe-side filter not pushed into scan:\n%s", explained)
	}
	out, err := Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar reference.
	nation := map[int64]bool{}
	for i := 0; i < sup.NumRows(); i++ {
		nation[sup.Column("s_suppkey").Int64s[i]] = true
	}
	var want int64
	ship := li.Column("l_shipdate").Int64s
	supk := li.Column("l_suppkey").Int64s
	for i := range ship {
		if ship[i] >= tpch.Q6ShipDateLo && nation[supk[i]] {
			want++
		}
	}
	if got := out.Column("n").Int64s[0]; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

// TestJoinSwappedKeysNormalized: unqualified ON keys written build-side-
// first (`ON s_suppkey = l_suppkey`) are assigned positionally by the
// parser; Resolve repairs the orientation once schemas are known, so the
// query runs instead of failing with "join key not in left input".
func TestJoinSwappedKeysNormalized(t *testing.T) {
	cat, _, _ := joinCatalog(t, 0.002)
	swapped := &JoinPlan{
		Left:    &ScanPlan{Table: "lineitem"},
		Right:   &ScanPlan{Table: "supplier"},
		LeftKey: "s_suppkey", RightKey: "l_suppkey",
	}
	got, err := Execute(swapped, cat)
	if err != nil {
		t.Fatalf("swapped single-key join: %v", err)
	}
	straight := &JoinPlan{
		Left:    &ScanPlan{Table: "lineitem"},
		Right:   &ScanPlan{Table: "supplier"},
		LeftKey: "l_suppkey", RightKey: "s_suppkey",
	}
	want, err := Execute(straight, cat)
	if err != nil {
		t.Fatal(err)
	}
	chunksIdentical(t, got, want)

	// Multi-key form, one pair swapped.
	multi := &JoinPlan{
		Left:     &ScanPlan{Table: "lineitem"},
		Right:    &ScanPlan{Table: "supplier"},
		LeftKeys: []string{"s_suppkey"}, RightKeys: []string{"l_suppkey"},
	}
	got, err = Execute(multi, cat)
	if err != nil {
		t.Fatalf("swapped multi-key join: %v", err)
	}
	chunksIdentical(t, got, want)
}

// TestWhereAboveJoinPushesThroughJoin: a WHERE written after an INNER JOIN
// (the shape sqlfe emits) must split into per-side scan filters with prune
// predicates, not evaluate on every joined row.
func TestWhereAboveJoinPushesThroughJoin(t *testing.T) {
	cat, li, sup := joinCatalog(t, 0.002)
	mkJoin := func() Plan {
		return &JoinPlan{
			Left:     &ScanPlan{Table: "lineitem"},
			Right:    &ScanPlan{Table: "supplier"},
			LeftKey:  "l_suppkey",
			RightKey: "s_suppkey",
		}
	}
	plan := &AggregatePlan{
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}},
		In: &FilterPlan{
			Pred: And(
				NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
				NewBin(OpLT, Col("s_nationkey"), ConstInt(10)),
			),
			In: mkJoin(),
		},
	}
	opt, err := Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	explained := Explain(opt)
	if strings.Contains(explained, "Filter ") {
		t.Errorf("WHERE above join not pushed into scans:\n%s", explained)
	}
	if !strings.Contains(explained, "prune=") {
		t.Errorf("probe-side prune predicates lost:\n%s", explained)
	}
	out, err := Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Unoptimized reference: filter evaluated above the join.
	ref, err := Execute(&AggregatePlan{
		Aggs: []AggSpec{{Func: AggCount, Name: "n"}},
		In: &FilterPlan{
			Pred: And(
				NewBin(OpGE, Col("l_shipdate"), ConstInt(tpch.Q6ShipDateLo)),
				NewBin(OpLT, Col("s_nationkey"), ConstInt(10)),
			),
			In: mkJoin(),
		},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Column("n").Int64s[0], ref.Column("n").Int64s[0]; got != want {
		t.Errorf("pushed-down count = %d, reference %d", got, want)
	}
	// Scalar cross-check.
	nation := map[int64]int64{}
	for i := 0; i < sup.NumRows(); i++ {
		nation[sup.Column("s_suppkey").Int64s[i]] = sup.Column("s_nationkey").Int64s[i]
	}
	var want int64
	ship := li.Column("l_shipdate").Int64s
	supk := li.Column("l_suppkey").Int64s
	for i := range ship {
		if nk, ok := nation[supk[i]]; ok && ship[i] >= tpch.Q6ShipDateLo && nk < 10 {
			want++
		}
	}
	if got := out.Column("n").Int64s[0]; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

// TestProjectionPushdownThroughJoin: both scans of a join under an
// aggregate are restricted to their referenced columns — the probe side to
// its keys and aggregated inputs, the build side to its keys and the
// columns the aggregate names (shuffle joins scan large build sides, so
// "keep the build side whole" would ship dead columns through the
// exchange). Only a bare join result keeps its sides whole.
func TestProjectionPushdownThroughJoin(t *testing.T) {
	cat, _, _ := joinCatalog(t, 0.002)
	opt, err := Optimize(revenueByNationPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	var scans []*ScanPlan
	var collect func(Plan)
	collect = func(p Plan) {
		for n := p; n != nil; n = n.Child() {
			if j, ok := n.(*JoinPlan); ok {
				collect(j.Right)
			}
			if s, ok := n.(*ScanPlan); ok {
				scans = append(scans, s)
			}
		}
	}
	collect(opt)
	var probe, build *ScanPlan
	for _, s := range scans {
		switch s.Table {
		case "lineitem":
			probe = s
		case "supplier":
			build = s
		}
	}
	if probe == nil || build == nil {
		t.Fatalf("scans = %v", scans)
	}
	if probe.Projection == nil {
		t.Fatalf("probe-side projection not pushed down:\n%s", Explain(opt))
	}
	want := map[string]bool{"l_suppkey": true, "l_extendedprice": true, "l_discount": true}
	if len(probe.Projection) != len(want) {
		t.Errorf("probe projection = %v, want columns %v", probe.Projection, want)
	}
	for _, c := range probe.Projection {
		if !want[c] {
			t.Errorf("probe projection includes unneeded column %q", c)
		}
	}
	wantBuild := map[string]bool{"s_suppkey": true, "s_nationkey": true}
	if build.Projection == nil {
		t.Errorf("build-side projection not pushed down:\n%s", Explain(opt))
	}
	if len(build.Projection) != len(wantBuild) {
		t.Errorf("build projection = %v, want columns %v", build.Projection, wantBuild)
	}
	for _, c := range build.Projection {
		if !wantBuild[c] {
			t.Errorf("build projection includes unneeded column %q", c)
		}
	}
	// And the projected plan still computes the right answer.
	out, err := Execute(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Execute(revenueByNationPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	chunksIdentical(t, out, ref)
}

func TestJoinPlanJSONRoundTrip(t *testing.T) {
	cat, _, _ := joinCatalog(t, 0.001)
	plan, err := Optimize(revenueByNationPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(raw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(back, cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("rows %d vs %d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		if a.Column("revenue").Float64s[i] != b.Column("revenue").Float64s[i] {
			t.Fatal("results diverge after JSON round trip")
		}
	}
}

func TestJoinDistributedSplit(t *testing.T) {
	// Agg over join splits: the join stays in the worker scope.
	cat, li, sup := joinCatalog(t, 0.002)
	plan, err := Optimize(revenueByNationPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	worker, driver := splitScopes(t, plan)
	if !strings.Contains(Explain(worker), "HashJoin") {
		t.Fatalf("worker scope lost the join:\n%s", Explain(worker))
	}
	// Partition lineitem over 5 workers; supplier is broadcast (full copy
	// in each worker catalog).
	var results []*columnar.Chunk
	for _, part := range tpch.SplitFiles(li, 5) {
		wcat := Catalog{
			"lineitem": NewMemSource(tpch.Schema(), part),
			"supplier": NewMemSource(tpch.SupplierSchema(), sup),
		}
		r, err := Execute(worker, wcat)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	ws, _ := worker.OutSchema()
	merged, err := Execute(driver, Catalog{WorkerResultTable: NewMemSource(ws, results...)})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != single.NumRows() {
		t.Fatalf("distributed %d rows vs single %d", merged.NumRows(), single.NumRows())
	}
	for i := 0; i < single.NumRows(); i++ {
		a := single.Column("revenue").Float64s[i]
		b := merged.Column("revenue").Float64s[i]
		if math.Abs(a-b) > 1e-6*math.Abs(a) {
			t.Errorf("row %d: %v vs %v", i, a, b)
		}
	}
}
