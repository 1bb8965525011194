package driver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// payloadSeeds returns one payload of every task shape the scheduler builds,
// as its workers receive them: q1's scan task; q12's at three partitions over
// multi-level boundaries — scan, regroup and join tasks; and q12's scan task
// with ORDERS broadcast, its files pinned beside the task's own.
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
			t.Errorf("worker %d's payload carries %d children", p.WorkerID, len(p.Children))
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
	// At the default limit the planner broadcasts the small ORDERS.
	if _, _, err := sess.RunSQLStaged(env, q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, DefaultStageConfig()); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// FuzzWorkerPayload: the invocation blob is outside bytes to the worker that
// receives it. Whatever they are, decoding them, checking the task's counts,
// its children and that every scan file carries its footer
// (workerPayload.check) and binding its fragment (fragmentCatalog: the plan
// JSON, the shipped footers of its files and its build sides', the build
// sides' resident charge) gives an error or a task with every table it names
// bound — never a panic, never an S3 request, and never more memory than the
// worker's engine budget allows, however many rows a file's footer claims.
// Every child of an accepted task is sent a payload that passes check too.
// The deployment has no file behind any name, and nothing here reads one.
// testdata/fuzz/FuzzWorkerPayload holds the seeds of the first staged
// payload shapes (the two regroup ones with dense regroup stage IDs; their
// scan files carry no footer, which check now refuses), a scan task as the
// planner pins it (q1-scan-pinned), the broadcast q12 task with its ORDERS
// files pinned (q12-broadcast-pinned), worker 1's regroup task of an
// aggregate over a two-level boundary (regroup-no-tables), worker 0's
// first-generation task of a 25-worker q1 launched through the tree with its
// four children's shares (q1-tree-parent), and the crashers found since; the
// two that carry a broadcast blob (broadcast-run-bomb, q12-resident-orders)
// decode to tasks without it. Every seed names its files in the one "tables"
// map; a task that scans no table has no such key.
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
		reads := sess.dep.Meter.Count(pricing.LabelS3Read)
		var p workerPayload
		err := json.Unmarshal(data, &p)
		if err == nil {
			err = p.check()
		}
		if err == nil && len(p.Plan) > 0 {
			plan, bound, rest, cerr := sess.fragmentCatalog(ctx, client, &p)
			names := sortedStringKeys(p.Tables)
			if err = cerr; err == nil && (plan == nil || len(bound) != len(names)) {
				t.Errorf("fragment bound to plan %v and %d of %d tables, without an error", plan, len(bound), len(names))
			}
			if err == nil && (rest < 0 || rest > residentBudget(ctx.MemoryMiB)) {
				t.Errorf("build sides left %d of the %d-byte resident budget", rest, residentBudget(ctx.MemoryMiB))
			}
		}
		if err == nil && (p.WorkerID >= p.NumWorkers || p.NumWorkers > maxFanout) {
			t.Errorf("accepted worker %d of %d", p.WorkerID, p.NumWorkers)
		}
		if n := sess.dep.Meter.Count(pricing.LabelS3Read) - reads; n != 0 {
			t.Errorf("binding the task billed %d S3 reads", n)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; len(data) <= 256<<10 && alloc > 64<<20 {
			t.Errorf("%d input bytes allocated %d MiB", len(data), alloc>>20)
		}
		for i := 0; err == nil && i < len(p.Children); i++ {
			var child workerPayload
			body, cerr := json.Marshal(p.forWorker(p.Children[i]))
			if cerr == nil {
				cerr = json.Unmarshal(body, &child)
			}
			if cerr == nil {
				cerr = child.check()
			}
			if cerr != nil {
				t.Errorf("accepted a task whose child %d is refused: %v", p.Children[i].WorkerID, cerr)
			}
		}
	})
}

// TestShippedFooterRefused: a worker trusts no footer its payload carries. A
// scan file without one is refused by check, and one whose bytes do not
// decode against its size — a bad magic, bytes cut short of the footer, a
// footer length beyond the object, an object too small for the column
// chunks the footer places — by fragmentCatalog, each with the typed
// errShippedFooter, no panic and no S3 request. Every table of the payload
// is held to the same: each case is refused as the only table's file and as
// a second table's. The file as the planner pinned it binds without a
// request either, in both places.
func TestShippedFooterRefused(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 2, Opts: gzipLayout.Opts})
	pinned, err := scan.New(s3.NewClient(d.dep.S3, env), scan.DefaultConfig(), tables["lineitem"]...).Pin(tables["lineitem"][:1])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.MarshalPlan(&engine.ScanPlan{Table: "lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	good := pinned[0]
	footerLen := len(good.Footer) - 8
	ctx := &lambdasvc.Ctx{Env: env, MemoryMiB: 1792}
	client := s3.NewClient(d.dep.S3, env)
	bind := func(f scan.FileRef, second bool) error {
		p := workerPayload{QueryID: "q1", NumWorkers: 1, Plan: plan, Tables: TableFiles{"lineitem": {f}}}
		if second {
			p.Tables = TableFiles{"lineitem": {good}, "second": {f}}
		}
		err := p.check()
		if err == nil {
			_, _, _, err = d.fragmentCatalog(ctx, client, &p)
		}
		return err
	}
	reads := d.dep.Meter.Count(pricing.LabelS3Read)
	for _, second := range []bool{false, true} {
		if err := bind(good, second); err != nil {
			t.Fatalf("the pinned file (second table: %t): %v", second, err)
		}
	}
	mutated := func(edit func(b []byte)) []byte {
		b := bytes.Clone(good.Footer)
		edit(b)
		return b
	}
	for _, tc := range []struct {
		name string
		f    scan.FileRef
	}{
		{"no footer", scan.FileRef{Bucket: good.Bucket, Key: good.Key, Size: good.Size}},
		{"bad magic", scan.FileRef{Bucket: good.Bucket, Key: good.Key, Size: good.Size,
			Footer: mutated(func(b []byte) { b[len(b)-1] ^= 0xff })}},
		{"truncated", scan.FileRef{Bucket: good.Bucket, Key: good.Key, Size: good.Size, Footer: good.Footer[1:]}},
		{"footer length beyond size", scan.FileRef{Bucket: good.Bucket, Key: good.Key, Size: good.Size,
			Footer: mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[len(b)-8:], uint32(good.Size)) })}},
		{"size below the column chunks", scan.FileRef{Bucket: good.Bucket, Key: good.Key, Size: int64(footerLen + 9), Footer: good.Footer}},
	} {
		for _, second := range []bool{false, true} {
			if err := bind(tc.f, second); !errors.Is(err, errShippedFooter) {
				t.Errorf("%s (second table: %t): %v, want errShippedFooter", tc.name, second, err)
			}
		}
	}
	if n := d.dep.Meter.Count(pricing.LabelS3Read) - reads; n != 0 {
		t.Errorf("binding the tasks billed %d S3 reads", n)
	}
}

// FuzzResultMessage: a result-queue body is outside bytes to the driver that
// receives it. Whatever they are, receipt on a scheduler of two launched
// stages — scan stage 1 feeding stage 0, two workers each — discards the
// message, records it (a winner, a relaunch, a seal) or returns the query's
// typed StageFailure, never a panic; a winner's result chunk decodes to a
// chunk or an error.
func FuzzResultMessage(f *testing.F) {
	for _, rm := range []resultMsg{
		{QueryID: "q1", Epoch: 3, Stage: 1, WorkerID: 1, ProcessingNs: 5, Offsets: []int64{0, 10, 20}},
		{QueryID: "q1", Epoch: 3, Stage: 0, WorkerID: 0, Chunk: []byte("not an lpq blob")},
		{QueryID: "q1", Epoch: 3, Stage: 1, WorkerID: 0, Err: "boom", Retryable: true},
		{QueryID: "q1", Epoch: 3, Stage: 0, WorkerID: 1, Attempt: 1, Err: "boom"},
		{QueryID: "q1", Epoch: 2, Stage: 1},
	} {
		body, _ := json.Marshal(rm)
		f.Add(body)
	}
	f.Add([]byte(`{"queryId":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := &scheduler{queryID: "q1", epoch: 3, byID: map[int]*stageRun{}}
		s.add(&stageplan.Stage{ID: 1}, workerPayload{}, make([]share, 2))
		s.add(&stageplan.Stage{ID: 0, DependsOn: []int{1}}, workerPayload{}, make([]share, 2))
		for _, r := range s.runs {
			s.launched(r, []int{0, 1}, 0)
		}
		rm, r, out, err := s.receipt(time.Millisecond, time.Millisecond, body)
		var sf *StageFailure
		switch {
		case err != nil:
			if !errors.As(err, &sf) || r == nil {
				t.Fatalf("error %v (run %v), want a StageFailure of a run", err, r)
			}
		case r == nil:
			if out != nothing || s.zombieDiscards+s.loserDiscards != 1 {
				t.Fatalf("discarded with outcome %d, %d zombie and %d loser discards counted", out, s.zombieDiscards, s.loserDiscards)
			}
		case out == relaunch:
			if r.attempts[rm.WorkerID] != 1 {
				t.Fatalf("relaunch of worker %d at attempt %d", rm.WorkerID, r.attempts[rm.WorkerID])
			}
		default:
			if _, won := r.winners[rm.WorkerID]; !won {
				t.Fatalf("outcome %d for worker %d, which is not recorded as a winner", out, rm.WorkerID)
			}
			if len(rm.Chunk) > 0 {
				if c, err := lpq.ReadFiles(16<<20, rm.Chunk); err == nil && c == nil {
					t.Fatal("a winner's chunk decoded to neither a chunk nor an error")
				}
			}
		}
	})
}

// FuzzEpochValue: an epoch item is outside bytes to the driver that reads
// it. parseEpochValue accepts it or not, never panicking, and what it accepts
// formats back (formatEpochValue) to an item that parses to the same epoch
// and instant.
func FuzzEpochValue(f *testing.F) {
	for _, seed := range []string{"1@0", "7@123456789", "0@5", "3@-1", "3", "+2@007", "9223372036854775807@1", ""} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		epoch, at, ok := parseEpochValue(v)
		if !ok {
			return
		}
		if epoch < 1 || at < 0 {
			t.Fatalf("accepted %q as epoch %d at %d", v, epoch, at)
		}
		back := formatEpochValue(epoch, at)
		if e, a, ok := parseEpochValue(back); !ok || e != epoch || a != at {
			t.Fatalf("%q parsed to (%d, %d); formatted back, %q parses to (%d, %d, %t)", v, epoch, at, back, e, a, ok)
		}
	})
}
