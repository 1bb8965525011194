package driver

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// payloadSeeds returns one payload of every task shape the scheduler builds,
// as its workers receive them: q1's scan task; q12's at three partitions over
// multi-level boundaries — scan, regroup and join tasks; and q12's scan task
// with ORDERS a driver-resident table, its blob inside.
func payloadSeeds(t testing.TB) [][]byte {
	dep := NewLocal()
	env := simenv.NewImmediate()
	cfg := DefaultConfig()
	sess := NewSession(dep, cfg)
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	// Keep worker 0's payload of every (query, stage) the session runs.
	var mu sync.Mutex
	var seeds [][]byte
	err := dep.Lambda.CreateFunction(cfg.FunctionName, cfg.WorkerMemoryMiB, cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
		var p workerPayload
		err := json.Unmarshal(payload, &p)
		if len(p.Children) > 0 {
			// Fleets this small launch from the driver, one task per payload.
			t.Errorf("worker %d's payload folds in %d children", p.WorkerID, len(p.Children))
		}
		if err == nil && p.WorkerID == 0 {
			mu.Lock()
			seeds = append(seeds, payload)
			mu.Unlock()
		}
		return sess.workerHandler(ctx, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.0002, Seed: 7}
	li := g.Generate()
	orders := g.OrdersFor(li)
	liRefs, err := sess.UploadTable(env, "tpch", "lineitem", li, 2, lpq.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ordRefs, err := sess.UploadTable(env, "tpch", "orders", orders, 2, lpq.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.RunSQL(env, q1SQL, "lineitem", liRefs); err != nil {
		t.Fatal(err)
	}
	scfg := DefaultStageConfig()
	scfg.Partitions, scfg.BroadcastRowLimit, scfg.Exchange.Variant.Levels = 3, -1, 2
	if _, _, err := sess.RunSQLStaged(env, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.runSQL(env, q12ExactSQL, TableFiles{"lineitem": liRefs}, map[string]*columnar.Chunk{"orders": orders}, DefaultStageConfig()); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// FuzzWorkerPayload: the invocation blob is outside bytes to the worker that
// receives it. Whatever they are, decoding them, checking the task's counts
// (workerPayload.check) and binding its fragment (fragmentCatalog: the plan
// JSON, the broadcast blobs) gives an error or a task — never a panic, and
// never more memory than the worker's engine budget allows, however many rows
// a blob's footer claims. The deployment has no file behind any name: nothing
// here reads one. testdata/fuzz/FuzzWorkerPayload holds the seeds as built at
// PR 24 (the two regroup ones as the planner builds them since PR 25) and the
// crashers found since.
func FuzzWorkerPayload(f *testing.F) {
	for _, seed := range payloadSeeds(f) {
		f.Add(seed)
	}
	sess := NewSession(NewLocal(), DefaultConfig())
	ctx := &lambdasvc.Ctx{Env: simenv.NewImmediate(), MemoryMiB: 208} // engine budget 16 MiB
	client := s3.NewClient(sess.dep.S3, ctx.Env)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var p workerPayload
		err := json.Unmarshal(data, &p)
		if err == nil {
			err = p.check()
		}
		if err == nil && len(p.Plan) > 0 {
			plan, bound, cerr := sess.fragmentCatalog(ctx, client, &p)
			if err = cerr; err == nil && (plan == nil || len(bound) < len(p.Broadcast)) {
				t.Errorf("fragment bound to plan %v and %d of %d broadcast tables, without an error", plan, len(bound), len(p.Broadcast))
			}
		}
		if err == nil && (p.WorkerID >= p.NumWorkers || p.NumWorkers > maxFanout) {
			t.Errorf("accepted worker %d of %d", p.WorkerID, p.NumWorkers)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; len(data) <= 256<<10 && alloc > 64<<20 {
			t.Errorf("%d input bytes allocated %d MiB", len(data), alloc>>20)
		}
	})
}
