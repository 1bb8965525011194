package driver

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// shardState is what the shard buckets hold and how many keys were ever
// deleted from them, read without a request: no virtual time passes, so
// the reading is of the very instant it is taken at.
func shardState(sess *Session) (bytes, deletes int64) {
	for _, b := range sess.InstallExchange() {
		st, _ := sess.dep.S3.BucketStats(b)
		bytes, deletes = bytes+sess.dep.S3.TotalBytes(b), deletes+st.Deletes
	}
	return bytes, deletes
}

// TestReclaimBehindTheResult: a shuffled q12 returns at its merge. Its
// untraced Duration ends where a traced twin's merge phase does, the twin's
// cleanup phase opens there and its Duration waits it out, and at the
// instant Run returns the query's boundary objects are still in the shard
// buckets: no DeleteObjects has landed yet. A second query issued at that
// instant runs beside the reclaim and returns identical rows, and once the
// kernel drains nothing of either is left.
func TestReclaimBehindTheResult(t *testing.T) {
	l, scfg := layout{Data: 33, LI: 4, Ord: 2, Opts: stdLayout.Opts}, shuffled(2)
	var twin *Report
	if _, err := onDES(func(k *simclock.Kernel) *Deployment {
		dep := NewSimulated(k, 7)
		dep.EnableTracing(obs.New())
		return dep
	}, desConfig(), l, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
		_, twin, err = sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	phases := map[string]obs.Span{}
	qs := twin.Trace.Spans()[twin.Span-1]
	for _, s := range twin.Trace.Spans() {
		if s.Parent == twin.Span && s.Kind == obs.KindPhase {
			phases[s.Name] = s
		}
	}
	merge, cleanup := phases["merge"], phases["cleanup"]

	var first, second *columnar.Chunk
	var rep *Report
	var returned time.Duration
	var stored, deleted, deletedBefore int64
	sess, err := onDES(simulated(7), desConfig(), l, func(p *simclock.Proc, sess *Session, tables TableFiles) (err error) {
		_, deletedBefore = shardState(sess)
		start := p.Now()
		if first, rep, err = sess.RunSQLStaged(p, q12ExactSQL, tables, scfg); err != nil {
			return err
		}
		returned = p.Now() - start
		stored, deleted = shardState(sess)
		second, _, err = sess.RunSQLStaged(p, q12ExactSQL, tables, scfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	chunksIdentical(t, first, singleNode(t, q12ExactSQL, tpchData(l.Data).catalog()))
	chunksIdentical(t, second, first)
	switch {
	case rep.Epoch != 1:
		t.Fatalf("epoch %d, want 1", rep.Epoch)
	case rep.Duration != returned:
		t.Errorf("Duration %v, but Run returned %v after it began", rep.Duration, returned)
	case merge.End == 0 || rep.Duration != merge.End-qs.Start:
		t.Errorf("untraced Duration %v, the traced twin's merge ended at %v", rep.Duration, merge.End-qs.Start)
	case cleanup.Start != merge.End || cleanup.End <= cleanup.Start || twin.Duration != cleanup.End-qs.Start:
		t.Errorf("traced cleanup ran %v–%v after a merge that ended at %v; traced Duration %v", cleanup.Start-qs.Start, cleanup.End-qs.Start, merge.End-qs.Start, twin.Duration)
	case stored == 0 || deleted != deletedBefore:
		t.Errorf("when Run returned, the shard buckets held %d bytes and %d keys had been deleted, want the query's objects and none", stored, deleted-deletedBefore)
	}
	if left, _ := shardState(sess); left != 0 {
		t.Errorf("%d bytes left in the shard buckets once the kernel drained", left)
	}
	assertQueryClean(t, sess, "q1")
	assertQueryClean(t, sess, "q2")
}

// TestReclaimAfterFailure: a query that fails after launch — a scan worker's
// non-retryable failure seal — returns its StageFailure before its reclaim
// has deleted anything, and still leaves nothing once the kernel drains:
// the keyed delete runs behind the error as it runs behind a result.
func TestReclaimAfterFailure(t *testing.T) {
	var qerr error
	var deleted, deletedBefore int64
	sess, err := onDES(simulated(5), desConfig(), layout{Data: 33, LI: 2, Ord: 1, Opts: stdLayout.Opts}, func(p *simclock.Proc, sess *Session, tables TableFiles) error {
		if err := corruptColumnChunk(p, sess.dep.S3, tables["lineitem"][1], "l_receiptdate"); err != nil {
			return err
		}
		_, deletedBefore = shardState(sess)
		_, _, qerr = sess.RunSQLStaged(p, q12ExactSQL, tables, shuffled(2))
		_, deleted = shardState(sess)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sf *StageFailure
	if !errors.As(qerr, &sf) || sf.Retryable {
		t.Fatalf("err = %v, want a non-retryable *StageFailure", qerr)
	}
	if deleted != deletedBefore {
		t.Errorf("%d keys deleted before the failed query returned, want none", deleted-deletedBefore)
	}
	if left, _ := shardState(sess); left != 0 {
		t.Errorf("%d bytes left in the shard buckets once the kernel drained", left)
	}
	assertQueryClean(t, sess, sf.QueryID)
}

// TestEpochFenceIsOneWrite: a fresh query ID takes epoch 1 with one
// conditional create — one DynamoDB write, no read. A restarted driver
// reusing the ID fails that create, reads the item and increments it:
// epoch 2 with two writes and one read.
func TestEpochFenceIsOneWrite(t *testing.T) {
	dep := NewLocal()
	table := stagesTableName("fn")
	dep.Dynamo.CreateTable(table)
	for _, want := range []struct {
		epoch         int
		writes, reads int64
	}{{1, 1, 0}, {2, 2, 1}} {
		q := NewSession(dep, DefaultConfig()).newQuery(simenv.NewImmediate()) // a fresh driver
		w, r := dep.Meter.Count(pricing.LabelDynamoWrite), dep.Meter.Count(pricing.LabelDynamoRead)
		got, err := q.acquireEpoch(table, "q1")
		q.close()
		w, r = dep.Meter.Count(pricing.LabelDynamoWrite)-w, dep.Meter.Count(pricing.LabelDynamoRead)-r
		if err != nil || got != want.epoch || w != want.writes || r != want.reads {
			t.Errorf("epoch %d (%v) in %d writes and %d reads, want %d in %d and %d", got, err, w, r, want.epoch, want.writes, want.reads)
		}
	}
}

// TestReclaimFailureKeepsTheRows: a keyed delete that still fails after its
// retries — every DeleteObjects fails here — does not fail a query whose
// rows are ready. Its objects stay under the query's prefix, for the epoch
// GC to sweep before the fence expires.
func TestReclaimFailureKeepsTheRows(t *testing.T) {
	l := layout{Data: 33, LI: 2, Ord: 1, Opts: stdLayout.Opts}
	var out *columnar.Chunk
	var qerr error
	sess, err := onDES(func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 5, faults.Plan{Rules: []faults.Rule{{Op: faults.OpS3Delete, Kind: faults.KindTransient}}})
	}, desConfig(), l, func(p *simclock.Proc, sess *Session, tables TableFiles) error {
		out, _, qerr = sess.RunSQLStaged(p, q12ExactSQL, tables, shuffled(2))
		return nil
	})
	if err != nil || qerr != nil {
		t.Fatalf("err = %v, query err = %v, want the rows", err, qerr)
	}
	chunksIdentical(t, out, singleNode(t, q12ExactSQL, tpchData(l.Data).catalog()))
	if left, _ := shardState(sess); left == 0 {
		t.Error("every delete failed, and the shard buckets are empty")
	}
	if err := queryLeaks(sess, "q1"); err == nil || !strings.Contains(err.Error(), "objects left under") {
		t.Errorf("leak audit: %v, want the query's objects left under its prefix", err)
	}
}
