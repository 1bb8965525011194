package driver

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/simclock"
)

// TestEntrancesPlanAlike: which entrance a query comes in by decides nothing.
// A case over one table at the default configuration replays through
// RunSQL, and the harness requires byte-identical rows, the same fleet and
// the same bill: q1 and q6 (generated seeds 1 and 2) merge on the driver,
// and GROUP BY l_partkey repartitions through either.
func TestEntrancesPlanAlike(t *testing.T) {
	q := groupBy("l_partkey", agg("COUNT(*)", "n"), agg("SUM(l_linenumber)", "lines"))
	runCase(t, planCase{Q: q, Layout: stdLayout, Default: true}, wantStages(2))
}

// TestSchedulerRunsAtBenchShapes pins the stage runs the scheduler makes of
// the plan for staged_des' and fleet_des' q12 (BroadcastRowLimit -1 on four
// LINEITEM and two ORDERS files at SF 0.002): launch order, fragment or
// regroup fleet (a regroup is booked under its producer's ID), fleet size and
// boundary variant. The values were recorded before the planner took over
// fleet sizes, variants and regroup stages from the driver (PR 25); fleet_des'
// were re-recorded when the exact request model took over the shard count:
// one listed bucket makes its 2 × 256 boundaries cheaper single-round, so
// the two 16-worker regroup fleets are gone.
func TestSchedulerRunsAtBenchShapes(t *testing.T) {
	type run struct {
		stage   int
		regroup bool
		workers int
		variant string
	}
	for _, tc := range []struct {
		name  string
		parts int
		want  []run
	}{
		{"staged_des", 30, []run{{1, false, 2, "1l-wc"}, {2, false, 2, "1l-wc"}, {0, false, 30, ""}}},
		{"fleet_des", 256, []run{{1, false, 2, "1l-wc"}, {2, false, 2, "1l-wc"}, {0, false, 256, ""}}},
	} {
		var rep *Report
		_, err := onDES(simulated(7), desConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
			scfg := shuffled(tc.parts)
			scfg.Exchange.Poll = 100 * time.Millisecond
			_, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []run
		for _, ss := range rep.StageStats {
			got = append(got, run{ss.StageID, ss.Regroup, ss.Workers, ss.Variant})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stage runs\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestSchemaMismatchFailsAtPlanTime: the plan is optimized against the first
// file's schema and a worker resolves a file's columns by name, so a file
// whose same-named column has another type would have the engine index the
// wrong vector. The planner holds every footer: it refuses the query, typed,
// naming table and object, before any worker is invoked.
func TestSchemaMismatchFailsAtPlanTime(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), localLayout)
	refs, data := tables["lineitem"], tpchData(localLayout.Data).lineitem
	// File 5 again, with l_quantity as BIGINT.
	schema := &columnar.Schema{Fields: append([]columnar.Field(nil), data.Schema.Fields...)}
	qi := schema.Index("l_quantity")
	schema.Fields[qi].Type = columnar.Int64
	rows := data.Slice(0, 100)
	odd := columnar.NewChunk(schema, rows.NumRows())
	for j, col := range rows.Columns {
		if j != qi {
			odd.Columns[j] = col
			continue
		}
		for _, q := range col.Float64s {
			odd.Columns[j].AppendInt64(int64(q))
		}
	}
	blob, err := lpq.WriteFile(schema, lpq.WriterOptions{}, odd)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deployment().S3.Put(simenv.NewImmediate(), refs[5].Bucket, refs[5].Key, blob); err != nil {
		t.Fatal(err)
	}

	meter := d.Deployment().Meter
	before := meter.Count(pricing.LabelLambdaRequests)
	for name, query := range map[string]func() error{
		"RunSQL": func() error { _, _, err := d.RunSQL(env, q1SQL, "lineitem", refs); return err },
		"RunSQLStaged": func() error {
			_, _, err := d.RunSQLStaged(env, q1SQL, TableFiles{"lineitem": refs}, DefaultStageConfig())
			return err
		},
	} {
		err := query()
		if !errors.Is(err, ErrInvalidPlan) || !strings.Contains(err.Error(), `"lineitem"`) || !strings.Contains(err.Error(), refs[5].Key) {
			t.Errorf("%s: err = %v, want ErrInvalidPlan naming lineitem and %s", name, err, refs[5].Key)
		}
	}
	if n := meter.Count(pricing.LabelLambdaRequests) - before; n != 0 {
		t.Errorf("%d workers invoked for a query that does not plan", n)
	}
	assertQueryClean(t, d, "q1")
	assertQueryClean(t, d, "q2")

	// The files that agree still plan.
	if _, _, err := d.RunSQL(env, q1SQL, "lineitem", append([]scan.FileRef(nil), refs[:5]...)); err != nil {
		t.Errorf("the first five files alone: %v", err)
	}
}
