package driver

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
	"lambada/internal/worker"
)

// TestPayloadShapes pins the one task shape at its two ends: a single-scope
// payload is the bare fragment plus its files — no boundary spec on the
// wire — and a regroup payload is a boundary spec with no plan and no
// tables, which survives the JSON round trip a first-generation worker puts
// its own payload through before it derives its children's. A payload with
// neither is refused. The regroup task is built from the planner's regroup
// stage.
func TestPayloadShapes(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 2, Opts: stdLayout.Opts})
	q := d.newQuery(env)
	defer q.close()
	single := &stageplan.Stage{ID: 1, Plan: singleNodePlan(t, q6SQL), Table: "lineitem", Workers: 2}

	task, shares, err := q.stageTask(0, single, tables, worker.Boundary{})
	if err != nil {
		t.Fatal(err)
	}
	p0 := task.ForWorker(shares[0])
	body, err := json.Marshal(&p0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Boundary != nil || bytes.Contains(body, []byte(`"boundary"`)) || !bytes.Contains(body, []byte(`"plan"`)) {
		t.Errorf("single-scope payload = %s, want a plan and no boundary spec", body)
	}

	// A two-worker scan whose repartition boundary is pinned multi-level at
	// P = 5: the planner puts its regroup stage right behind it.
	opt, err := engine.Optimize(singleNodePlan(t, `SELECT l_orderkey, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey`),
		engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema())})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stageplan.Decompose(opt, stageplan.Stats{Workers: map[string]int{"lineitem": 2}},
		stageplan.Config{Partitions: 5, Exchange: exchange.Variant{Levels: 2, WriteCombining: true}})
	if err != nil {
		t.Fatal(err)
	}
	scan, regroup := sp.Stages[0], sp.Stages[1]
	if producer, ok := regroup.RegroupOf(); !ok || producer != scan.ID {
		t.Fatalf("stage behind the scan is not its regroup:\n%s", stageplan.Explain(sp))
	}
	ns := worker.Boundary{Buckets: []string{"b0", "b1"}, Prefix: "fn/q1/e3", PollNs: 5, MaxWaitNs: 7, SealTable: "fn-stages"}
	groups := exchange.Groups(scan.Output.Partitions)
	if task, shares, err = q.stageTask(3, regroup, tables, ns); err != nil {
		t.Fatal(err)
	}
	if len(shares) != groups {
		t.Fatalf("regroup fleet = %d shares, want Groups(5) = %d", len(shares), groups)
	}
	rg := task.ForWorker(shares[groups-1])
	if body, err = json.Marshal(&rg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte(`"plan"`)) || bytes.Contains(body, []byte(`"tables"`)) {
		t.Errorf("regroup payload carries a plan or tables: %s", body)
	}
	var back worker.Payload
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rg) {
		t.Errorf("regroup payload did not round-trip:\n got %+v\nwant %+v", back, rg)
	}
	if in := back.Boundary.Inputs; back.StageID != regroup.ID || len(in) != 1 || in[0].StageID != scan.ID || in[0].Ready != scan.ID ||
		in[0].Senders != 2 || in[0].Variant != scan.Output.Variant || !reflect.DeepEqual(back.Boundary.Output, scan.Output) {
		t.Errorf("regroup payload = %s, want the producer's boundary as its one input and its output", body)
	}

	if err := (&worker.Payload{QueryID: "q1", NumWorkers: 1}).Check(); err == nil {
		t.Error("a payload with neither plan nor boundary was accepted")
	}
}

// TestStagedMultiLevelByteIdentity forces every stage boundary through the
// multi-level protocol at a partition count the analytic model would never
// pick it for, in both write-combining modes: q12 grouped on l_partkey has
// three boundaries — two scans into the join, the join into the final merge —
// and a regroup fleet behind each, booked under its producer.
func TestStagedMultiLevelByteIdentity(t *testing.T) {
	c := planCase{Q: q12ByPart(), Layout: gzipLayout, Partitions: 5, BroadcastRowLimit: -1, Levels: 2, Goroutines: true}
	for variant, basic := range map[string]bool{"2l": true, "2l-wc": false} {
		c.Basic = basic
		runCase(t, c, wantStages(4), wantRegroups(3), wantVariant(variant))
	}
}

// TestStagedQ12ScaleSmoke is the scale acceptance point: staged q12 on the
// DES kernel at 512 partitions — a fleet past 1024 workers, for which it is
// grouped on l_partkey: q12's own five priorities merge on the driver, and
// the 512-sender boundary under the aggregate is the one that must go
// multi-level. The variant
// resolver must send the wide boundaries through the multi-level exchange on
// its own (no forcing), the billed S3 requests against the shard buckets
// must match the per-boundary analytic model of the staged protocol
// integer-exactly — puts, gets, and lists: neither the protocol nor the
// driver's cleanup lists anything — the answer stays byte-identical to
// single-node execution, and the leak audit finds nothing once the kernel
// drained.
func TestStagedQ12ScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-worker DES run skipped in -short mode")
	}
	const parts = 512
	var out *columnar.Chunk
	var rep *Report
	var buckets []string
	var before []s3.Stats
	scfg := shuffled(parts)
	scfg.Exchange.Poll = 100 * time.Millisecond
	traced := func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 29)
		dep.EnableTracing(obs.New())
		return dep
	}
	d, err := onDES(traced, desConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		// Snapshot the shard buckets before the query: the deltas are exactly
		// the boundary traffic (table data lives in the tpch bucket).
		buckets = d.InstallExchange()
		for _, b := range buckets {
			st, err := d.dep.S3.BucketStats(b)
			if err != nil {
				return err
			}
			before = append(before, st)
		}
		out, rep, err = d.RunSQLStaged(p, q12ByPartSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatalf("scale run failed: %v", err)
	}
	dep := d.dep
	chunksIdentical(t, out, singleNode(t, q12ByPartSQL, tpchData(33).catalog()))

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
		rc := v.SealedRequests(ss.Workers, parts)
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
	// Exactly the model: the driver deletes what the query wrote by key, and
	// a query at epoch 1 lists no bucket.
	if got != model {
		t.Errorf("billed boundary requests %+v != staged model %+v", got, model)
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
	// The join fleet launches on the scans' first winners — 23
	// first-generation Invokes from the requester pool, issued while the scans'
	// last seals arrive — and no seal may wait for it. Nor may the join's own:
	// its 512 seals come back as full batches, which the result loop takes
	// through a window of Receives; one Receive at a time, the join sealed
	// 175 ms behind its last winner.
	assertSealLag(t, rep)

	// Its critical path still prints in a screenful.
	var buf bytes.Buffer
	WriteReport(&buf, rep, RenderOptions{Profile: true})
	_, path, _ := strings.Cut(buf.String(), "critical path (stage, phase):\n")
	if n := strings.Count(path, "\n"); n == 0 || n > 60 {
		t.Errorf("the critical path prints in %d lines, want 1 to 60", n)
	}

	// The kernel has drained, so the reclaim behind the result has run: the
	// 1k-worker fleet's every object, winners and regroup rounds alike, is
	// gone. Last, because the audit lists the shard buckets.
	assertQueryClean(t, d, rep.QueryID)
}
