package driver

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// TestPayloadShapes pins the one task shape at its two ends: a single-scope
// payload is the bare fragment plus its files — no boundary spec on the
// wire — and a regroup payload is a boundary spec with no plan, which
// survives the JSON round trip a tree launch puts child payloads through.
// A payload with neither is refused, not dereferenced.
func TestPayloadShapes(t *testing.T) {
	d, refs, _ := localSetup(t, DefaultConfig(), 0.001, 2)
	q := d.sess.newQuery(d.env)
	defer q.close()
	scan := &stageplan.Stage{ID: 1, Plan: singleNodePlan(t, q6SQL), Table: "lineitem"}

	ps, err := q.stagePayloads(0, scan, 2, refs, nil, nil, boundarySpec{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&ps[0])
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Boundary != nil || bytes.Contains(body, []byte(`"boundary"`)) || !bytes.Contains(body, []byte(`"plan"`)) {
		t.Errorf("single-scope payload = %s, want a plan and no boundary spec", body)
	}

	scan.Output = &stageplan.Output{Keys: []string{"l_orderkey"}, Partitions: 5, Variant: exchange.Variant{Levels: 2, WriteCombining: true}}
	byID := map[int]*stageRun{scan.ID: {st: scan, payloads: ps}}
	ns := boundarySpec{Buckets: []string{"b0", "b1"}, Prefix: "fn/q1/e3", PollNs: 5, MaxWaitNs: 7, SealTable: "fn-stages"}
	groups := exchange.Groups(scan.Output.Partitions)
	if ps, err = q.stagePayloads(3, regroupStage(scan), groups, nil, byID, nil, ns); err != nil {
		t.Fatal(err)
	}
	if len(ps) != groups {
		t.Fatalf("regroup fleet = %d payloads, want Groups(5) = %d", len(ps), groups)
	}
	rg := ps[groups-1]
	if body, err = json.Marshal(&rg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte(`"plan"`)) {
		t.Errorf("regroup payload carries a plan: %s", body)
	}
	var back workerPayload
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rg) {
		t.Errorf("regroup payload did not round-trip:\n got %+v\nwant %+v", back, rg)
	}
	if in := back.Boundary.Inputs; back.StageID != regroupStageID(scan.ID) || len(in) != 1 || in[0].StageID != scan.ID ||
		in[0].Senders != 2 || in[0].Variant != scan.Output.Variant || !reflect.DeepEqual(back.Boundary.Output, scan.Output) {
		t.Errorf("regroup payload = %s, want the producer's boundary as its one input and its output", body)
	}

	ctx := &lambdasvc.Ctx{Env: d.env, MemoryMiB: d.cfg.WorkerMemoryMiB}
	if _, err := d.sess.executeFragment(ctx, d.sess.retryPolicy(1), &workerPayload{QueryID: "q1"}); err == nil {
		t.Error("a payload with neither plan nor boundary was executed")
	}
}

// TestStagedMultiLevelByteIdentity forces every stage boundary through the
// multi-level protocol (one regroup round) at a small partition count the
// analytic model would never pick it for, and checks the answer is still
// byte-identical to single-node execution — for both write-combining modes —
// with the report attributing a regroup fleet to every boundary.
func TestStagedMultiLevelByteIdentity(t *testing.T) {
	for _, wc := range []bool{false, true} {
		d, tables, li, orders := stagedSetup(t, 0.002, 6, 4)
		cfg := DefaultStageConfig()
		cfg.Partitions = 5
		cfg.BroadcastRowLimit = -1
		cfg.Exchange.Variant.WriteCombining = wc
		cfg.ExchangeLevels = 2

		got, rep, err := d.RunSQLStaged(q12ByPartSQL, tables, cfg)
		if err != nil {
			t.Fatalf("wc=%v: %v", wc, err)
		}
		want := singleNode(t, q12ByPartSQL, engine.Catalog{
			"lineitem": engine.NewMemSource(tpch.Schema(), li),
			"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
		})
		chunksIdentical(t, got, want)

		wantVariant := exchange.Variant{Levels: 2, WriteCombining: wc}.String()
		boundaries, regroups := 0, 0
		for _, ss := range rep.StageStats {
			if ss.Regroup {
				regroups++
				if ss.Variant != wantVariant {
					t.Errorf("wc=%v: regroup of stage %d ran variant %q, want %q", wc, ss.StageID, ss.Variant, wantVariant)
				}
				if ss.Workers != exchange.Groups(cfg.Partitions) {
					t.Errorf("wc=%v: regroup fleet of stage %d has %d workers, want Groups(%d)=%d",
						wc, ss.StageID, ss.Workers, cfg.Partitions, exchange.Groups(cfg.Partitions))
				}
				continue
			}
			if ss.Variant != "" {
				boundaries++
				if ss.Variant != wantVariant {
					t.Errorf("wc=%v: stage %d boundary ran variant %q, want %q", wc, ss.StageID, ss.Variant, wantVariant)
				}
			}
		}
		// Grouped on l_partkey, q12 has three boundaries: two scan stages
		// feeding the join and the join+partial stage feeding the final merge.
		if boundaries != 3 || regroups != 3 {
			t.Errorf("wc=%v: %d boundaries / %d regroup fleets in stage stats, want 3/3: %+v",
				wc, boundaries, regroups, rep.StageStats)
		}
		// Report.Stages counts planner stages only; regroup fleets are
		// bookkept under their producer.
		if rep.Stages != 4 {
			t.Errorf("wc=%v: stages = %d, want 4", wc, rep.Stages)
		}
	}
}

// TestStagedQ12ScaleSmoke is the scale acceptance point: staged q12 on the
// DES kernel at 512 partitions — a fleet past 1024 workers, for which it is
// grouped on l_partkey: q12's own five priorities merge on the driver, and
// the 512-sender boundary under the aggregate is the one that must go
// multi-level. The variant
// resolver must send the wide boundaries through the multi-level exchange on
// its own (no forcing), the billed S3 requests against the shard buckets
// must match the per-boundary analytic model integer-exactly (puts/gets; the
// driver's two namespace sweeps add lists on top), and the answer stays
// byte-identical to single-node execution.
func TestStagedQ12ScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-worker DES run skipped in -short mode")
	}
	const parts = 512
	k := simclock.New()
	dep := NewSimulated(k, 29)
	var out *columnar.Chunk
	var rep *Report
	var li, orders *columnar.Chunk
	var buckets []string
	var before []s3.Stats
	var scfg StageConfig
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li = g.Generate()
		orders = g.OrdersFor(li)
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		scfg = DefaultStageConfig()
		scfg.Partitions = parts
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond

		// Snapshot the shard buckets before the query: the deltas are exactly
		// the boundary traffic (table data lives in the tpch bucket).
		buckets = d.InstallExchange()
		for _, b := range buckets {
			st, err := dep.S3.BucketStats(b)
			if err != nil {
				t.Error(err)
				return
			}
			before = append(before, st)
		}
		out, rep, err = d.RunSQLStaged(q12ByPartSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("scale run failed: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}

	want := singleNode(t, q12ByPartSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	chunksIdentical(t, out, want)

	if rep.Workers < 1024 {
		t.Errorf("fleet = %d workers, want >= 1024", rep.Workers)
	}

	// Reconstruct the analytic request model boundary by boundary: each
	// non-regroup stage with a boundary reports its resolved variant, which
	// must be exactly what ChooseVariant picks for its (S, P, B) — and the
	// wide join boundary (S = partitions senders) must have gone multi-level.
	var model exchange.RequestCount
	joinMulti := false
	for _, ss := range rep.StageStats {
		if ss.Regroup || ss.Variant == "" {
			continue
		}
		v := stageplan.ChooseVariant(ss.Workers, parts, len(buckets), scfg.Exchange.Variant, 0)
		if ss.Variant != v.String() {
			t.Errorf("stage %d (S=%d) ran variant %q, want model choice %q", ss.StageID, ss.Workers, ss.Variant, v.String())
		}
		rc := v.Requests(ss.Workers, parts, len(buckets))
		model.Puts += rc.Puts
		model.Gets += rc.Gets
		model.Lists += rc.Lists
		if ss.Workers == parts {
			if v.Levels < 2 {
				t.Errorf("join boundary (S=%d, P=%d) resolved to %q, want multi-level", ss.Workers, parts, ss.Variant)
			}
			joinMulti = true
		}
	}
	if !joinMulti {
		t.Error("no wide join boundary found in stage stats")
	}

	var got exchange.RequestCount
	for i, b := range buckets {
		st, err := dep.S3.BucketStats(b)
		if err != nil {
			t.Fatal(err)
		}
		got.Puts += st.Puts - before[i].Puts
		got.Gets += st.Gets - before[i].Gets
		got.Lists += st.Lists - before[i].Lists
	}
	if got.Puts != model.Puts || got.Gets != model.Gets {
		t.Errorf("billed boundary requests (puts=%d gets=%d) != analytic model (puts=%d gets=%d)",
			got.Puts, got.Gets, model.Puts, model.Gets)
	}
	// The pre-launch and post-merge sweeps List every shard bucket once each
	// on top of the protocol's own discovery lists.
	if got.Lists < model.Lists || got.Lists > model.Lists+2*int64(len(buckets)) {
		t.Errorf("billed lists %d outside [model %d, model+2B %d]",
			got.Lists, model.Lists, model.Lists+2*int64(len(buckets)))
	}

	// A regroup worker reads one small range per sender — 512 of them here.
	// Through the S3 client's request window that is 32 first-byte latencies;
	// one after another it was 512, and the whole fleet behind the regroup
	// stage idled through them (regroup sealed 17.2 s after its producer and
	// the query took 22.6 s, against 1.7 s and 6.4 s now). Both bounds sit
	// far from either side so that only a serial read can trip them.
	sealed := map[int]time.Duration{}
	for _, ss := range rep.StageStats {
		if !ss.Regroup {
			sealed[ss.StageID] = ss.Sealed
		}
	}
	for _, ss := range rep.StageStats {
		if lag := ss.Sealed - sealed[ss.StageID]; ss.Regroup && lag > 3*time.Second {
			t.Errorf("regroup of stage %d sealed %v after its producer, want within 3s: are its reads serial again?", ss.StageID, lag)
		}
	}
	if rep.Duration >= 10*time.Second {
		t.Errorf("query took %v, want under 10s", rep.Duration)
	}
}

// TestStagedMultiLevelSpeculationCompletesViaBackup re-runs the straggler
// scenario over forced multi-level boundaries: the regroup round must merge
// the backup attempt's round-1 files (first committed attempt wins across
// rounds), and a chased second query is untouched.
func TestStagedMultiLevelSpeculationCompletesViaBackup(t *testing.T) {
	const stall = 10 * time.Minute
	g := tpch.Gen{SF: 0.002, Seed: 17}
	li := g.Generate()
	orders := g.OrdersFor(li)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	first, second, rep := runStagedWithStraggler(t, true, 2, stall)
	if t.Failed() {
		return
	}
	chunksIdentical(t, first, want)
	chunksIdentical(t, second, want)
	if rep.Speculated == 0 {
		t.Error("no backup attempts issued for the straggler")
	}
	if rep.Duration >= stall {
		t.Errorf("latency %v waited out the %v stall", rep.Duration, stall)
	}
	found := false
	for _, ss := range rep.StageStats {
		if ss.StageID == 0 && !ss.Regroup && ss.Speculated > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("stage stats did not attribute the backup: %+v", rep.StageStats)
	}
}

// TestStagedMultiLevelZombieSealDiscarded re-runs the epoch-fence zombie
// scenario over forced multi-level boundaries: the zombie's grouped round-1
// files and its seal all carry the losing epoch, and neither the retry's
// regroup fleets nor its receivers can see them.
func TestStagedMultiLevelZombieSealDiscarded(t *testing.T) {
	g := tpch.Gen{SF: 0.002, Seed: 41}
	li := g.Generate()
	orders := g.OrdersFor(li)
	want := singleNode(t, q12ExactSQL, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema(), li),
		"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
	})
	out, rep, _, _ := runStagedZombieSeal(t, true, 2)
	chunksIdentical(t, out, want)
	if rep.QueryID != "q1" {
		t.Errorf("retry ran as %s, want q1 (test premise broken)", rep.QueryID)
	}
	if rep.Epoch != 2 {
		t.Errorf("retry epoch = %d, want 2 (aborted run took 1)", rep.Epoch)
	}
}
