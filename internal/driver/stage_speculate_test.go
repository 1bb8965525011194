package driver

import (
	"fmt"
	"path"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/exchange"
	"lambada/internal/simclock"
)

// TestStagedReadsTheSealedWinner: the consumers of a boundary read, per
// writer, the attempt the driver sealed first — not the lowest committed one.
// Worker 1 of scan stage 1 stalls on attempt 0 and its backup, attempt 1,
// seals the stage. As the backup starts, a committed attempt 0 of writer 1 is
// planted in the query's boundary namespace: a copy of writer 0's objects
// under writer 1's names, which decodes to writer 0's rows in place of writer
// 1's. The answer stays byte-identical to single-node execution, for both
// write-combining modes. A reader taking each writer's lowest committed
// attempt collects the plant and miscounts.
func TestStagedReadsTheSealedWinner(t *testing.T) {
	const stalled = 1
	want := singleNode(t, q12ExactSQL, tpchData(17).catalog())
	// Writer 0's names of attempt 0, as writer 1's: the write-combined object
	// (either form) and its commit marker, or a slot file.
	asWriter1 := strings.NewReplacer("snd0-a0", "snd1-a0", "a0-snd0", "a0-snd1")
	for _, wc := range []bool{false, true} {
		var dep *Deployment
		var got *columnar.Chunk
		var rep *Report
		planted := 0
		cfg := desConfig()
		cfg.Speculate = true
		plant := func(p *simclock.Proc) {
			client := s3.NewClient(dep.S3, p)
			prefix := fmt.Sprintf("%s/q1/e1/s%d/", cfg.FunctionName, stalled)
			for i := 0; i < exchange.ShardBuckets; i++ {
				bucket := exchangeBucketName(cfg.FunctionName, i)
				entries, err := client.List(bucket, prefix)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					dir, base := path.Split(e.Key)
					if planting := asWriter1.Replace(base); planting != base {
						data, _, err := client.Get(bucket, e.Key, 1)
						if err == nil {
							err = client.Put(bucket, dir+planting, data)
						}
						if err != nil {
							t.Error(err)
							return
						}
						planted++
					}
				}
			}
		}
		var k *simclock.Kernel
		cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
			if stage != stalled || workerID != 1 {
				return 0
			}
			if attempt == 0 {
				return 10 * time.Minute
			}
			// The backup: writer 0 sealed before it was issued, so its
			// objects are there to copy. The backup waits out the planting.
			k.Go("plant", plant)
			return 2 * time.Second
		}
		scfg := shuffled(2)
		scfg.Exchange.Variant.WriteCombining = wc
		scfg.Exchange.Variant.Levels = 1
		_, err := onDES(func(kern *simclock.Kernel) *Deployment {
			k, dep = kern, NewSimulated(kern, 53)
			return dep
		}, cfg, layout{Data: 17, LI: 4, Ord: 2, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
			got, rep, err = d.RunSQLStaged(p, q12ExactSQL, tables, scfg)
			return err
		})
		if err != nil {
			t.Fatalf("wc=%v: %v", wc, err)
		}
		if planted == 0 {
			t.Fatalf("wc=%v: nothing planted (test premise broken)", wc)
		}
		speculated := false
		for _, ss := range rep.StageStats {
			speculated = speculated || ss.StageID == stalled && ss.Speculated > 0
		}
		if !speculated {
			t.Fatalf("wc=%v: stage %d was not speculated (test premise broken): %+v", wc, stalled, rep.StageStats)
		}
		chunksIdentical(t, got, want)
	}
}

// TestStagedSweepClearsBoundaries: after a staged query returns, the
// driver's keyed delete has emptied the query's boundary namespace in every
// shard bucket (queryLeaks).
func TestStagedSweepClearsBoundaries(t *testing.T) {
	d, env, tables := goSession(t, DefaultConfig(), layout{Data: 33, LI: 4, Ord: 2, Opts: gzipLayout.Opts})
	cfg := shuffled(2)
	// A concurrent query whose ID merely starts with this one's (q10 next to
	// q1) owns a different namespace: q1's cleanup must leave it alone.
	buckets := d.InstallExchange()
	client := s3.NewClient(d.dep.S3, env)
	sibling := d.cfg.FunctionName + "/q10/e1/live-boundary-object"
	if err := client.Put(buckets[0], sibling, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RunSQLStaged(env, q12ExactSQL, tables, cfg); err != nil {
		t.Fatal(err)
	}
	if err := queryLeaks(d, "q1"); err != nil {
		t.Error(err)
	}
	if _, _, err := client.Get(buckets[0], sibling, 1); err != nil {
		t.Errorf("q1's cleanup took query q10's object %s: %v", sibling, err)
	}
}
