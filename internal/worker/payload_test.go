package worker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// payloadSeeds returns worker 0's payload of every stage of three queries,
// each built as the driver builds a task: the stage plan Decompose makes from
// the footers' rows, fleets and bounds, the boundary namespace of an epoch-1
// query, every table the fragment scans pinned, and the stage's own table cut
// to the worker's share. That is one payload of every task shape the driver
// builds: q1's scan task; q12's at three partitions over multi-level
// boundaries — scan, regroup and join tasks; and q12's scan task with ORDERS
// broadcast, its files pinned beside the task's own.
func payloadSeeds(t testing.TB) [][]byte {
	b := newTestbed()
	g := tpch.Gen{SF: 0.0002, Seed: 7}
	li := g.Generate()
	files := TableFiles{
		"lineitem": b.upload(t, "tpch", "lineitem", li, 2, lpq.WriterOptions{}),
		"orders":   b.upload(t, "tpch", "orders", g.OrdersFor(li), 2, lpq.WriterOptions{}),
	}
	names := files.Names()
	srcs, err := scan.Pinned(s3.NewClient(b.fn.S3, b.env), math.MaxInt64, files[names[0]], files[names[1]])
	if err != nil {
		t.Fatal(err)
	}
	schemas, bySrc := map[string]*columnar.Schema{}, map[string]*scan.Source{}
	stats := stageplan.Stats{Rows: map[string]int64{}, Workers: map[string]int{},
		Bounds: func(table, col string) (int64, int64, bool) { return bySrc[table].Bounds(col) }}
	for i, name := range names {
		bySrc[name] = srcs[i]
		if schemas[name], err = srcs[i].CommonSchema(); err != nil {
			t.Fatal(err)
		}
		for _, f := range files[name] {
			rows, err := srcs[i].EstimateFileRows(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			stats.Rows[name] += rows
		}
		stats.Workers[name] = len(files[name])
	}
	staged := stageplan.Config{Partitions: 3, BroadcastRowLimit: -1, Exchange: exchange.Variant{Levels: 2, WriteCombining: true}}
	var seeds [][]byte
	for _, q := range []struct {
		sql string
		cfg stageplan.Config
	}{{tpch.Q1SQL, stageplan.Config{}}, {tpch.Q12SQL, staged}, {tpch.Q12SQL, stageplan.Config{}}} {
		sp, err := stageplan.Decompose(optimized(t, q.sql, schemas), stats, q.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sp.Stages {
			p := Payload{QueryID: "q1", NumWorkers: st.Workers, ResultQueue: "lambada-results-q1", StageID: st.ID, Epoch: 1}
			if st.Plan != nil {
				p.Plan = marshalled(t, st.Plan)
			}
			if len(st.Inputs) > 0 || st.Output != nil {
				p.Boundary = &Boundary{Inputs: st.Inputs, Output: st.Output, Buckets: []string{"lambada-worker-xshard-0"},
					Prefix: "lambada-worker/q1/e1", PollNs: 5e7, MaxWaitNs: 6e11, SealTable: "lambada-worker-stages"}
			}
			engine.VisitScans(st.Plan, func(s *engine.ScanPlan) {
				if fs, ok := files[s.Table]; ok {
					if p.Tables == nil {
						p.Tables = TableFiles{}
					}
					p.Tables[s.Table] = fs
				}
			})
			if own := p.Tables[st.Table]; len(own) > 0 {
				p.Tables[st.Table] = own[:1]
			}
			body, err := json.Marshal(&p)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, body)
		}
	}
	return seeds
}

// FuzzWorkerPayload: the invocation blob is outside bytes to the worker that
// receives it. Whatever they are, decoding them, checking the task's counts,
// its children and that every scan file carries its footer (Payload.Check)
// and binding its fragment (fragmentCatalog: the plan JSON, the shipped
// footers of its files and its build sides', the build sides' resident
// charge) gives an error or a task with every table it names bound — never a
// panic, never an S3 request, and never more memory than the worker's engine
// budget allows, however many rows a file's footer claims. The children of
// an accepted task are other workers of its fleet, each named once, and each
// is sent a payload that passes Check too. The deployment has no file behind
// any name, and nothing here reads one.
// testdata/fuzz/FuzzWorkerPayload holds the seeds of the first staged
// payload shapes (the two regroup ones with dense regroup stage IDs; their
// scan files carry no footer, which Check refuses), a scan task as the
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
	b := newTestbed()
	ctx := &lambdasvc.Ctx{Env: b.env, MemoryMiB: 208} // engine budget 16 MiB
	client := s3.NewClient(b.fn.S3, ctx.Env)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reads := b.meter.Count(pricing.LabelS3Read)
		var p Payload
		err := json.Unmarshal(data, &p)
		if err == nil {
			err = p.Check()
		}
		if err == nil && len(p.Plan) > 0 {
			plan, bound, rest, cerr := fragmentCatalog(ctx, client, &p)
			if err = cerr; err == nil && (plan == nil || len(bound) != len(p.Tables)) {
				t.Errorf("fragment bound to plan %v and %d of %d tables, without an error", plan, len(bound), len(p.Tables))
			}
			if err == nil && (rest < 0 || rest > engine.ResidentBudget(ctx.MemoryMiB)) {
				t.Errorf("build sides left %d of the %d-byte resident budget", rest, engine.ResidentBudget(ctx.MemoryMiB))
			}
		}
		if err == nil && (p.WorkerID >= p.NumWorkers || p.NumWorkers > maxFanout) {
			t.Errorf("accepted worker %d of %d", p.WorkerID, p.NumWorkers)
		}
		if n := b.meter.Count(pricing.LabelS3Read) - reads; n != 0 {
			t.Errorf("binding the task billed %d S3 reads", n)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; len(data) <= 256<<10 && alloc > 64<<20 {
			t.Errorf("%d input bytes allocated %d MiB", len(data), alloc>>20)
		}
		named := map[int]bool{p.WorkerID: true}
		for i := 0; err == nil && i < len(p.Children); i++ {
			id := p.Children[i].WorkerID
			if named[id] {
				t.Errorf("accepted a task that names worker %d twice", id)
			}
			named[id] = true
			var child Payload
			body, cerr := json.Marshal(p.ForWorker(p.Children[i]))
			if cerr == nil {
				cerr = json.Unmarshal(body, &child)
			}
			if cerr == nil {
				cerr = child.Check()
			}
			if cerr != nil {
				t.Errorf("accepted a task whose child %d is refused: %v", id, cerr)
			}
		}
	})
}

// TestShippedFooterRefused: a worker trusts no footer its payload carries. A
// scan file without one is refused by Check, and one whose bytes do not
// decode against its size — a bad magic, bytes cut short of the footer, a
// footer length beyond the object, an object too small for the column
// chunks the footer places — by fragmentCatalog, each with the typed
// errShippedFooter, no panic and no S3 request. Every table of the payload
// is held to the same: each case is refused as the only table's file and as
// a second table's. The file as the planner pinned it binds without a
// request either, in both places.
func TestShippedFooterRefused(t *testing.T) {
	b := newTestbed()
	li := tpch.Gen{SF: 0.001, Seed: 33}.Generate()
	good := b.upload(t, "tpch", "lineitem", li, 2, lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip})[0]
	plan := marshalled(t, &engine.ScanPlan{Table: "lineitem"})
	footerLen := len(good.Footer) - 8
	ctx := &lambdasvc.Ctx{Env: b.env, MemoryMiB: 1792}
	client := s3.NewClient(b.fn.S3, b.env)
	bind := func(f scan.FileRef, second bool) error {
		p := Payload{QueryID: "q1", NumWorkers: 1, Plan: plan, Tables: TableFiles{"lineitem": {f}}}
		if second {
			p.Tables = TableFiles{"lineitem": {good}, "second": {f}}
		}
		err := p.Check()
		if err == nil {
			_, _, _, err = fragmentCatalog(ctx, client, &p)
		}
		return err
	}
	reads := b.meter.Count(pricing.LabelS3Read)
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
	if n := b.meter.Count(pricing.LabelS3Read) - reads; n != 0 {
		t.Errorf("binding the tasks billed %d S3 reads", n)
	}
}
