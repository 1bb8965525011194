package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/obs"
)

// serialCollect is the reference round.discover and round.read are held to
// now that they go through the S3 client's request window: the loop they were
// before, for a round whose writers have all committed — one List per shard
// bucket in lowest-writer order, each writer's lowest attempt, then one read
// per writer, one after another on the client itself.
func serialCollect(r round, slot int) ([][]byte, error) {
	form := commitKey
	if r.opts.Variant.WriteCombining {
		form = combinedKey
	}
	prefix := r.key(form, r.writer0, 0).render(false)
	refs := make([]ref, r.writers)
	listed := map[string]bool{}
	for w := r.writer0; w < r.writer0+r.writers; w++ {
		shard := r.bucket(w)
		if listed[shard] {
			continue
		}
		listed[shard] = true
		entries, err := r.client.List(shard, prefix)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			k, err := parseBoundaryKey(e.Key)
			if err != nil {
				return nil, err
			}
			cur := &refs[k.writer-r.writer0]
			if cur.key != "" && cur.attempt <= k.attempt {
				continue
			}
			*cur = ref{bucket: shard, key: e.Key, attempt: k.attempt}
			if form == combinedKey {
				if cur.lo, cur.hi, err = slotRange(k.offsets, r.slots, slot-r.slot0); err != nil {
					return nil, err
				}
			}
		}
	}
	var blobs [][]byte
	for i, f := range refs {
		var data []byte
		var err error
		switch {
		case f.key == "":
			return nil, fmt.Errorf("writer %d has not committed", r.writer0+i)
		case form == commitKey:
			k := r.key(fileKey, r.writer0+i, f.attempt)
			k.slot = slot
			data, _, err = r.client.Get(r.bucket(slot), k.String(), 1)
		case f.hi > f.lo:
			data, _, err = r.client.GetRange(f.bucket, f.key, f.lo, f.hi-f.lo, 1)
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, data)
	}
	return blobs, nil
}

// requestLog is what a collect asked of the service: the billed movement and
// every shard bucket's request counters.
type requestLog struct {
	billed  obs.Cost
	buckets [3]s3.Stats
}

// TestCollectMatchesSerialReference: for 1l, 1l-wc and 2l-wc, with a losing
// higher attempt beside a sender's (and a regroup worker's) winning one,
// every collect of the boundary — a partition's, and a regroup worker's of its
// group — returns the blobs, byte for byte, and makes the requests, bucket by
// bucket, of the serial loop. Twenty senders: more than one window's worth.
func TestCollectMatchesSerialReference(t *testing.T) {
	const senders, parts = 20, 7
	keys := []string{"k", "k2"}
	buckets := []string{"xa", "xb", "xc"}
	for _, v := range []Variant{{Levels: 1}, {Levels: 1, WriteCombining: true}, {Levels: 2, WriteCombining: true}} {
		meter := pricing.NewCostMeter()
		svc := s3.New(s3.Config{Meter: meter})
		for _, bk := range buckets {
			svc.MustCreateBucket(bk)
		}
		client := s3.NewClient(svc, simenv.NewImmediate())
		opts := Options{Variant: v, Buckets: buckets, Prefix: "q", Poll: time.Millisecond, MaxWait: time.Second}
		b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
		inputs := make([]*columnar.Chunk, senders)
		for s := range inputs {
			inputs[s] = stageTestChunk(s*30, 30)
		}
		runMultiLevelBoundary(t, client, opts, b, inputs, keys)
		// The losers: sender 2 and regroup worker 1 ran a second attempt.
		again := b
		again.Attempt = 1
		if err := PublishStage(client, opts, again, 2, inputs[2], keys); err != nil {
			t.Fatal(err)
		}
		// Every collect of the boundary: each partition's, or, multi-level,
		// each regroup worker's of its group and each partition's of its
		// regroup worker.
		type collect struct {
			name string
			r    round
			slot int
		}
		var collects []collect
		if v.Levels >= 2 {
			if err := RegroupStage(client, opts, again, 1, keys); err != nil {
				t.Fatal(err)
			}
			for g := 0; g < Groups(parts); g++ {
				collects = append(collects, collect{fmt.Sprintf("group %d", g), b.senders(client, opts, false), g})
			}
		}
		for p := 0; p < parts; p++ {
			r := b.senders(client, opts, false)
			if v.Levels >= 2 {
				r = b.regroup(client, opts, GroupOf(p, parts), false)
			}
			collects = append(collects, collect{fmt.Sprintf("partition %d", p), r, p})
		}

		watch := func(fn func() ([][]byte, error)) ([][]byte, requestLog) {
			var before, after requestLog
			snap := func(l *requestLog) {
				l.billed = meter.Cost()
				for i, bk := range buckets {
					l.buckets[i], _ = svc.BucketStats(bk)
				}
			}
			snap(&before)
			blobs, err := fn()
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			snap(&after)
			after.billed = after.billed.Sub(before.billed)
			for i := range after.buckets {
				after.buckets[i].Gets -= before.buckets[i].Gets
				after.buckets[i].Lists -= before.buckets[i].Lists
			}
			return blobs, after
		}
		for _, c := range collects {
			got, gotLog := watch(func() ([][]byte, error) {
				refs, err := c.r.discover(c.slot)
				if err != nil {
					return nil, err
				}
				blobs, _, err := read(c.r.client, refs)
				return blobs, err
			})
			want, wantLog := watch(func() ([][]byte, error) { return serialCollect(c.r, c.slot) })
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d blobs, the serial loop read %d", v, c.name, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%v %s: blob %d differs from the serial loop's", v, c.name, i)
				}
			}
			if gotLog != wantLog {
				t.Errorf("%v %s: requests %+v, the serial loop made %+v", v, c.name, gotLog, wantLog)
			}
			if gotLog.billed.S3Get == 0 || gotLog.billed.S3List == 0 {
				t.Errorf("%v %s: no requests seen: %+v", v, c.name, gotLog)
			}
		}
	}
}

// TestReadReportsLowestFailingWriter: when the reads of two writers fail, the
// error is the lower writer's, as from the serial loop — the window runs its
// calls in index order and stops at the first failure.
func TestReadReportsLowestFailingWriter(t *testing.T) {
	const senders = 20
	for _, wc := range []bool{false, true} {
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("x")
		env := simenv.NewImmediate()
		client := s3.NewClient(svc, env)
		opts := Options{Variant: Variant{Levels: 1, WriteCombining: wc}, Buckets: []string{"x"}, Prefix: "q", Poll: time.Millisecond, MaxWait: time.Second}
		b := Boundary{Stage: 1, Senders: senders, Partitions: 2}
		for s := 0; s < senders; s++ {
			if err := PublishStage(client, opts, b, s, stageTestChunk(s*10, 10), []string{"k"}); err != nil {
				t.Fatal(err)
			}
		}
		r := b.senders(client, opts, false)
		refs, err := r.discover(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, gone := range []int{17, 5} {
			if err := svc.DeleteBatch(env, refs[gone].bucket, []string{refs[gone].key}); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err = read(r.client, refs)
		if !errors.Is(err, s3.ErrNoSuchKey) || !strings.Contains(err.Error(), "reading "+refs[5].key+":") {
			t.Errorf("wc=%v: read error %v, want writer 5's missing %s", wc, err, refs[5].key)
		}
	}
}
