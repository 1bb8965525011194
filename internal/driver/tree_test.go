package driver

import (
	"encoding/json"
	"sync"
	"testing"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
	"lambada/internal/worker"
)

// TestRefusedParentInvokesNoChild: a first-generation worker checks its
// payload, children included, before it invokes anyone. A parent whose child
// could not run — the parent's own ID, an ID outside the fleet, a scan file
// without its footer, more children than the fleet has other workers — or
// that names a child twice (each entry would be a billed Invoke) issues no
// Invoke and posts its failure seal.
func TestRefusedParentInvokesNoChild(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Opts: stdLayout.Opts})
	pinned, err := scan.New(s3.NewClient(d.dep.S3, env), scan.DefaultConfig(), tables["lineitem"]...).Pin(tables["lineitem"])
	if err != nil {
		t.Fatal(err)
	}
	q := d.newQuery(env)
	defer q.close()
	st := &stageplan.Stage{Plan: singleNodePlan(t, q6SQL), Table: "lineitem", Workers: 4}
	task, shares, err := q.stageTask(0, st, TableFiles{"lineitem": pinned}, worker.Boundary{})
	if err != nil {
		t.Fatal(err)
	}
	parent := task.ForWorker(shares[0])
	if parent.Children = shares[1:]; parent.Check() != nil {
		t.Fatalf("the driver's own tree parent is refused: %v", parent.Check())
	}
	unpinned := worker.Share{WorkerID: 1, Tables: TableFiles{"lineitem": tables["lineitem"][1:2]}}
	for name, kids := range map[string][]worker.Share{
		"own ID":         {shares[1], shares[0]},
		"outside fleet":  {shares[1], {WorkerID: 4, Tables: shares[2].Tables}},
		"no footer":      {unpinned, shares[2]},
		"fleet of kids":  {shares[1], shares[2], shares[3], shares[1]},
		"negative child": {{WorkerID: -1, Tables: shares[1].Tables}},
		"twin children":  {shares[1], shares[1], shares[1]},
	} {
		parent.Children = kids
		body, err := json.Marshal(&parent)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := d.dep.Lambda.Invocations()
		if err := d.worker.Handle(&lambdasvc.Ctx{Env: env, MemoryMiB: d.cfg.WorkerMemoryMiB}, body); err != nil {
			t.Errorf("%s: the handler failed to post its seal: %v", name, err)
		}
		if after, _ := d.dep.Lambda.Invocations(); after != before {
			t.Errorf("%s: the refused parent issued %d Invokes", name, after-before)
		}
		msgs, err := d.dep.SQS.Receive(env, q.cfg.ResultQueue, 10)
		var rm worker.Result
		if err == nil && len(msgs) == 1 {
			err = json.Unmarshal(msgs[0].Body, &rm)
		}
		if err != nil || len(msgs) != 1 || rm.WorkerID != 0 || rm.Err == "" {
			t.Errorf("%s: %d seals (%v), first %+v; want worker 0's failure seal", name, len(msgs), err, rm)
		}
	}
}

// TestTreeLaunchCarriesShares runs the launch shape a folded tree could not
// carry: a broadcast q12 whose LINEITEM fleet goes through the tree on
// goroutine workers (which start it at 25 workers and up), with ORDERS in
// enough files that a first-generation body holding its children's whole
// payloads would pass Lambda's 256 KiB limit. It returns the direct launch's
// rows; every child's Invoke body is the one a direct launch of that worker
// sends — json.Marshal of the driver's task.ForWorker(share) — and every
// first-generation body is its own leaf plus its children's shares.
func TestTreeLaunchCarriesShares(t *testing.T) {
	l := layout{Data: 33, LI: 160, Ord: 128, Opts: stdLayout.Opts}
	run := func(maxInFlight int) (*columnar.Chunk, map[int][]byte) {
		cfg := DefaultConfig()
		cfg.MaxInFlight = maxInFlight // a capped fleet launches one worker per Invoke
		sess, env, tables := goSession(t, cfg, l)
		var mu sync.Mutex
		bodies := map[int][]byte{}
		err := sess.dep.Lambda.CreateFunction(cfg.FunctionName, cfg.WorkerMemoryMiB, cfg.Timeout, func(ctx *lambdasvc.Ctx, payload []byte) error {
			var p worker.Payload
			if err := json.Unmarshal(payload, &p); err == nil {
				mu.Lock()
				bodies[p.WorkerID] = payload
				mu.Unlock()
			}
			return sess.worker.Handle(ctx, payload)
		})
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := sess.RunSQLStaged(env, q12ExactSQL, tables, DefaultStageConfig())
		if err != nil {
			t.Fatalf("cap %d: %v", maxInFlight, err)
		}
		if rep.Stages != 1 || len(bodies) != rep.Workers || rep.Workers < 25 {
			t.Fatalf("cap %d: %d stages, %d workers, %d bodies; want one broadcast stage of 25 or more", maxInFlight, rep.Stages, rep.Workers, len(bodies))
		}
		return out, bodies
	}
	direct, leaves := run(64)
	out, bodies := run(0)
	chunksIdentical(t, out, direct)

	parents := 0
	for w, body := range bodies {
		var p worker.Payload
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Children) == 0 {
			if string(body) != string(leaves[w]) {
				t.Errorf("worker %d's Invoke body differs from its direct launch's:\n%s\n%s", w, body, leaves[w])
			}
			continue
		}
		parents++
		folded := len(leaves[w])
		for _, c := range p.Children {
			folded += len(leaves[c.WorkerID])
		}
		if folded <= 256<<10 {
			t.Errorf("worker %d with its %d children folds to %d bytes, within the Invoke limit: raise the ORDERS files", w, len(p.Children), folded)
		}
		kids, err := json.Marshal(p.Children)
		if err != nil {
			t.Fatal(err)
		}
		if limit := len(leaves[w]) + len(`,"children":`) + len(kids); len(body) > limit {
			t.Errorf("worker %d's first-generation body is %d bytes, over its leaf plus its children's shares (%d)", w, len(body), limit)
		}
		p.Children = nil
		if leaf, err := json.Marshal(&p); err != nil || string(leaf) != string(leaves[w]) {
			t.Errorf("worker %d's first-generation body without its children is not its direct launch's (%v)", w, err)
		}
	}
	if parents == 0 {
		t.Fatal("no worker invoked a child: the fleet launched directly")
	}
}
