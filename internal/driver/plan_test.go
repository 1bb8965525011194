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
	"lambada/internal/tpch"
)

// TestEntrancesPlanAlike: which entrance a query comes in by decides nothing.
// On twin DES deployments of one seed, RunSQL and RunSQLStaged at its default
// configuration return byte-identical rows, the same fleet and the same bill
// — for q1 and q6, whose partials merge on the driver, and for GROUP BY
// l_orderkey, which at this scale (30 000 order keys × 4 workers) the footers
// do not bound under the limit and which repartitions through either.
func TestEntrancesPlanAlike(t *testing.T) {
	run := func(sql string, staged bool) (*columnar.Chunk, *Report) {
		k := simclock.New()
		dep := NewSimulated(k, 83)
		var out *columnar.Chunk
		var rep *Report
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			refs, err := d.UploadTable(p, "tpch", "lineitem", tpch.Gen{SF: 0.02, Seed: 5}.Generate(), 4, lpq.WriterOptions{RowGroupRows: 8192})
			if err != nil {
				t.Error(err)
				return
			}
			if staged {
				out, rep, err = d.RunSQLStaged(p, sql, TableFiles{"lineitem": refs}, DefaultStageConfig())
			} else {
				out, rep, err = d.RunSQL(p, sql, "lineitem", refs)
			}
			if err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		if t.Failed() {
			t.FailNow()
		}
		return out, rep
	}
	for _, tc := range []struct {
		name, sql string
		stages    int
	}{
		{"q1", q1SQL, 1},
		{"q6", q6SQL, 1},
		{"group by l_orderkey", `SELECT l_orderkey, COUNT(*) AS n, SUM(l_linenumber) AS lines FROM lineitem GROUP BY l_orderkey ORDER BY l_orderkey`, 2},
	} {
		plain, plainRep := run(tc.sql, false)
		staged, stagedRep := run(tc.sql, true)
		chunksIdentical(t, staged, plain)
		if plainRep.Stages != tc.stages || stagedRep.Stages != tc.stages || plainRep.Workers != stagedRep.Workers {
			t.Errorf("%s: RunSQL ran %d stages / %d workers, RunSQLStaged %d / %d, want %d stages and equal fleets",
				tc.name, plainRep.Stages, plainRep.Workers, stagedRep.Stages, stagedRep.Workers, tc.stages)
		}
		if plainRep.Cost != stagedRep.Cost || plainRep.Duration != stagedRep.Duration {
			t.Errorf("%s: RunSQL billed %+v in %v\nRunSQLStaged billed %+v in %v", tc.name, plainRep.Cost, plainRep.Duration, stagedRep.Cost, stagedRep.Duration)
		}
		// The repartitioned aggregate shows as a boundary under stage 0.
		if boundary := plainRep.StageStats[0].Variant != ""; boundary != (tc.stages == 2) {
			t.Errorf("%s: stage 0 boundary %q in a %d-stage plan", tc.name, plainRep.StageStats[0].Variant, tc.stages)
		}
	}
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
	g := tpch.Gen{SF: 0.002, Seed: 33}
	li := g.Generate()
	orders := g.OrdersFor(li)
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
		k := simclock.New()
		dep := NewSimulated(k, 7)
		var rep *Report
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			liRefs, err := d.UploadTable(p, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			ordRefs, err := d.UploadTable(p, "tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = tc.parts
			scfg.BroadcastRowLimit = -1
			scfg.Exchange.Poll = 100 * time.Millisecond
			if _, rep, err = d.RunSQLStaged(p, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg); err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if k.Deadlocked() || rep == nil {
			t.Fatalf("%s: no report (deadlocked: %v)", tc.name, k.Deadlocked())
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
	d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 8)
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
