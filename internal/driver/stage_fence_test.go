package driver

import (
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
)

// TestStageFragmentSingleSealDeadline: a k-input fragment gets ONE seal-wait
// deadline, not one per input. One producer seals late (but in time), the
// other never; the fragment must report failure roughly at MaxWait from its
// start — not at lateSeal+MaxWait, the compounding the per-input deadline
// allowed.
func TestStageFragmentSingleSealDeadline(t *testing.T) {
	const (
		sealWait  = 30 * time.Second
		lateStall = 15 * time.Second
		deadStall = 3 * time.Minute
	)
	// Find the join stage's input order so the never-sealing producer is
	// its LAST input — the case where the restarted deadline compounds.
	data := tpchData(23)
	opt, err := engine.Optimize(singleNodePlan(t, q12ExactSQL), data.catalog())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stageplan.Decompose(opt, stageplan.Stats{Rows: map[string]int64{
		"lineitem": int64(data.lineitem.NumRows()), "orders": int64(data.orders.NumRows()),
	}}, stageplan.Config{Partitions: 2, BroadcastRowLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	firstIn, lastIn := -1, -1
	for _, st := range sp.Stages {
		if len(st.Inputs) == 2 {
			firstIn, lastIn = st.Inputs[0].StageID, st.Inputs[1].StageID
		}
	}
	if lastIn < 0 {
		t.Fatal("no two-input join stage in the plan")
	}

	// Worker 0 of each producer stalls, worker 1 does not: a consumer launches
	// on its producers' first winners, so with whole fleets stalled the join
	// would launch after the dead producer woke, and never wait at all.
	cfg := desConfig()
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		switch {
		case workerID != 0:
		case stage == firstIn:
			return lateStall // seals late but within the fragment deadline
		case stage == lastIn:
			return deadStall // never seals in time
		}
		return 0
	}
	scfg := shuffled(2)
	scfg.Exchange.Poll = 100 * time.Millisecond
	scfg.Exchange.MaxWait = sealWait
	scfg.Exchange.Variant.WriteCombining = false
	scfg.Exchange.Variant.Levels = 1
	var elapsed time.Duration
	var runErr error
	_, err = onDES(simulated(31), cfg, layout{Data: 23, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) error {
		start := p.Now()
		_, _, runErr = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("query with a dead producer unexpectedly succeeded")
	}
	if !strings.Contains(runErr.Error(), "never sealed") {
		t.Errorf("error %q does not name the seal barrier", runErr)
	}
	// With one deadline per fragment the failure lands near sealWait; the
	// per-input restart would push it past lateStall+sealWait.
	if limit := lateStall + sealWait; elapsed >= limit {
		t.Errorf("fragment failed after %v, want < %v (per-input deadline compounding)", elapsed, limit)
	}
}

// singleNodePlan parses SQL into a logical plan (test helper).
func singleNodePlan(t *testing.T, sql string) engine.Plan {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestAcquireEpochIncrementsDurably: successive drivers on one deployment
// observe strictly increasing epochs per query ID, independent counters per
// query ID, and the epoch survives driver restarts (it lives in DynamoDB,
// not driver memory).
func TestAcquireEpochIncrementsDurably(t *testing.T) {
	dep := NewLocal()
	env := simenv.NewImmediate()
	table := stagesTableName("fn")
	dep.Dynamo.CreateTable(table)
	d1 := NewSession(dep, DefaultConfig())
	q1 := d1.newQuery(env)
	defer q1.close()
	for want := 1; want <= 3; want++ {
		got, err := q1.acquireEpoch(table, "q1")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
	// A fresh driver continues the counter — the whole point of the fence.
	d2 := NewSession(dep, DefaultConfig())
	q2 := d2.newQuery(simenv.NewImmediate())
	defer q2.close()
	if got, err := q2.acquireEpoch(table, "q1"); err != nil || got != 4 {
		t.Fatalf("fresh driver epoch = %d (%v), want 4", got, err)
	}
	// Other query IDs are independent.
	if got, err := q2.acquireEpoch(table, "q2"); err != nil || got != 1 {
		t.Fatalf("q2 epoch = %d (%v), want 1", got, err)
	}
}

// TestEpochPrefixesDisjoint: publishes of different epochs land in disjoint
// namespaces, so an epoch-2 collector never waits on (or reads) epoch-1
// files. The Zombie cases run the whole retry over an aborted run's debris.
func TestEpochPrefixesDisjoint(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	client := s3.NewClient(svc, env)
	mk := func(epoch int) exchange.Options {
		return exchange.Options{
			Variant: exchange.Variant{Levels: 1},
			Buckets: []string{"x"},
			Prefix:  "fn/q1/e" + string(rune('0'+epoch)),
			Poll:    time.Millisecond,
			MaxWait: time.Second,
		}
	}
	b := exchange.Boundary{Stage: 0, Senders: 1, Partitions: 1}
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	old := columnar.NewChunk(schema, 4)
	for i := 0; i < 4; i++ {
		old.Columns[0].AppendInt64(999) // epoch-1 poison rows
	}
	if err := exchange.PublishStage(client, mk(1), b, 0, old, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	fresh := columnar.NewChunk(schema, 2)
	fresh.Columns[0].AppendInt64(1)
	fresh.Columns[0].AppendInt64(2)
	if err := exchange.PublishStage(client, mk(2), b, 0, fresh, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	got, err := exchange.CollectStage(client, mk(2), b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Columns[0].Int64s[0] != 1 {
		t.Fatalf("epoch-2 collector read %d rows (first %v), want the 2 fresh rows",
			got.NumRows(), got.Columns[0].Int64s[0])
	}
}
