package driver

import (
	"math"
	"testing"
	"time"

	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/tpch"
)

// groupByPartkeySQL has far more groups than Q1, and no footer bound on them
// (l_partkey spans 200 000 values) — the case the exchange merge exists for.
const groupByPartkeySQL = `
SELECT l_partkey, SUM(l_extendedprice) AS total, COUNT(*) AS n, AVG(l_discount) AS ad
FROM lineitem
GROUP BY l_partkey
ORDER BY l_partkey`

// TestStagedGroupByShuffleMatchesSingleNode: a grouped aggregation shuffled
// by group key — partial aggregate in the scan stage, repartition on the
// group key, final merge stage — equals single-node execution on both
// write-combining settings of the exchange.
func TestStagedGroupByShuffleMatchesSingleNode(t *testing.T) {
	for _, wc := range []bool{false, true} {
		d, env, refs, data := localSetup(t, DefaultConfig(), 0.002, 9)
		plan, err := sqlfe.Parse(groupByPartkeySQL)
		if err != nil {
			t.Fatal(err)
		}
		// Single-node reference through the engine.
		cat := engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)}
		refPlan, err := sqlfe.Parse(groupByPartkeySQL)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Execute(refPlan, cat)
		if err != nil {
			t.Fatal(err)
		}

		scfg := DefaultStageConfig()
		scfg.Partitions = 3
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.Exchange.Variant.Levels = 1
		got, rep, err := d.Run(env, plan, TableFiles{"lineitem": refs}, nil, scfg)
		if err != nil {
			t.Fatalf("wc=%v: %v", wc, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("wc=%v: groups = %d, want %d", wc, got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			if got.Column("l_partkey").Int64s[i] != want.Column("l_partkey").Int64s[i] {
				t.Fatalf("wc=%v: row %d key mismatch", wc, i)
			}
			g, w := got.Column("total").Float64s[i], want.Column("total").Float64s[i]
			if math.Abs(g-w) > 1e-6*math.Max(1, w) {
				t.Errorf("wc=%v: row %d total = %v, want %v", wc, i, g, w)
			}
			if got.Column("n").Int64s[i] != want.Column("n").Int64s[i] {
				t.Errorf("wc=%v: row %d count mismatch", wc, i)
			}
			ga, wa := got.Column("ad").Float64s[i], want.Column("ad").Float64s[i]
			if math.Abs(ga-wa) > 1e-9 {
				t.Errorf("wc=%v: row %d avg = %v, want %v", wc, i, ga, wa)
			}
		}
		if rep.Stages != 2 || rep.Workers != 9+3 {
			t.Errorf("wc=%v: stages = %d, workers = %d, want 2 stages of 9 scan + 3 merge workers", wc, rep.Stages, rep.Workers)
		}
		// The shuffle leaves request traces: write requests beyond the
		// table upload must have happened.
		if rep.Cost.S3Put <= 0 {
			t.Errorf("wc=%v: no exchange writes recorded", wc)
		}
		assertQueryClean(t, d, rep.QueryID)
	}
}

// TestStagedGroupByShuffleDES: the same shuffle under the DES kernel is
// exact and deterministic — rows, virtual duration and cost repeat.
func TestStagedGroupByShuffleDES(t *testing.T) {
	run := func(wc bool) (int, time.Duration, float64) {
		k := simclock.New()
		dep := NewSimulated(k, 17)
		var rows int
		var dur time.Duration
		var cost float64
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := NewSession(dep, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			data := tpch.Gen{SF: 0.002, Seed: 23}.Generate()
			refs, err := d.UploadTable(p, "tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			// Grouped on a key the footers cannot bound, so that it shuffles.
			plan, err := sqlfe.Parse(`SELECT l_partkey, COUNT(*) AS n FROM lineitem GROUP BY l_partkey ORDER BY l_partkey`)
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = 3
			scfg.Exchange.Variant.WriteCombining = wc
			scfg.Exchange.Variant.Levels = 1
			scfg.Exchange.Poll = 100 * time.Millisecond
			out, rep, err := d.Run(p, plan, TableFiles{"lineitem": refs}, nil, scfg)
			if err != nil {
				t.Error(err)
				return
			}
			rows = out.NumRows()
			dur = rep.Duration
			cost = rep.TotalCost
			if rep.Stages != 2 {
				t.Errorf("stages = %d, want 2 (scan+partial, final)", rep.Stages)
			}
			// Validate groups and counts against the reference.
			parts := map[int64]bool{}
			for _, k := range data.Column("l_partkey").Int64s {
				parts[k] = true
			}
			if rows != len(parts) {
				t.Errorf("groups = %d, want %d part keys", rows, len(parts))
			}
			var total int64
			for i := 0; i < out.NumRows(); i++ {
				total += out.Column("n").Int64s[i]
			}
			if total != int64(data.NumRows()) {
				t.Errorf("counts sum to %d, want %d", total, data.NumRows())
			}
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return rows, dur, cost
	}
	for _, wc := range []bool{false, true} {
		r1, d1, c1 := run(wc)
		r2, d2, c2 := run(wc)
		if r1 != r2 || d1 != d2 || c1 != c2 {
			t.Errorf("wc=%v: shuffled DES run not deterministic", wc)
		}
		if d1 <= 0 || d1 > 2*time.Minute {
			t.Errorf("wc=%v: virtual duration = %v", wc, d1)
		}
	}
}
