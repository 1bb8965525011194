package exchange

import (
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
)

func stageTestChunk(lo, n int) *columnar.Chunk {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
	)
	c := columnar.NewChunk(schema, n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(lo + i))
		c.Columns[1].AppendInt64(int64((lo + i) % 7))
		c.Columns[2].AppendFloat64(float64(lo+i) * 0.5)
	}
	return c
}

// TestStageBoundary publishes from S senders and collects into P partitions
// (S != P), checking that every row lands in exactly the partition its key
// hashes to, in sender-then-row order, for both variants.
func TestStageBoundary(t *testing.T) {
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("xa")
		svc.MustCreateBucket("xb")
		opts := Options{
			Variant: Variant{Levels: 1, WriteCombining: wc},
			Buckets: []string{"xa", "xb"},
			Prefix:  "q1",
			Poll:    5 * time.Millisecond,
			MaxWait: 30 * time.Second,
		}
		const senders, parts = 3, 5
		b := Boundary{Stage: 2, Senders: senders, Partitions: parts}

		inputs := make([]*columnar.Chunk, senders)
		for s := 0; s < senders; s++ {
			inputs[s] = stageTestChunk(s*40, 40)
		}

		var wg sync.WaitGroup
		results := make([]*columnar.Chunk, parts)
		errs := make([]error, senders+parts)
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				client := s3.NewClient(svc, env)
				errs[s] = PublishStage(client, opts, b, s, inputs[s], []string{"k", "k2"})
			}(s)
		}
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				client := s3.NewClient(svc, env)
				var err error
				results[p], err = CollectStage(client, opts, b, p)
				errs[senders+p] = err
			}(p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("wc=%v: %v", wc, err)
			}
		}

		// Every row present exactly once, in the partition its key hashes
		// to, ordered by (sender, row).
		total := 0
		for p, res := range results {
			keys := []*columnar.Vector{res.Column("k"), res.Column("k2")}
			prevSenderRow := -1
			for i := 0; i < res.NumRows(); i++ {
				if got := HashPartition(keys, i, parts); got != p {
					t.Fatalf("wc=%v: row with key %d in partition %d, want %d",
						wc, keys[0].Int64s[i], p, got)
				}
				// k values encode global (sender, row) order.
				if int(keys[0].Int64s[i]) <= prevSenderRow {
					t.Fatalf("wc=%v: partition %d rows out of sender order", wc, p)
				}
				prevSenderRow = int(keys[0].Int64s[i])
			}
			total += res.NumRows()
		}
		if total != senders*40 {
			t.Fatalf("wc=%v: %d rows collected, want %d", wc, total, senders*40)
		}
	}
}

// TestStageBoundaryEmptyPartitions: one sender, keys all equal, so P-1
// partitions receive empty files — collectors must still complete.
func TestStageBoundaryEmptyPartitions(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	opts := Options{
		Variant: Variant{Levels: 1},
		Buckets: []string{"x"},
		Prefix:  "q2",
		Poll:    time.Millisecond,
		MaxWait: 10 * time.Second,
	}
	b := Boundary{Stage: 0, Senders: 1, Partitions: 4}
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64})
	c := columnar.NewChunk(schema, 8)
	for i := 0; i < 8; i++ {
		c.Columns[0].AppendInt64(42)
	}
	client := s3.NewClient(svc, env)
	if err := PublishStage(client, opts, b, 0, c, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for p := 0; p < 4; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() > 0 {
			nonEmpty++
			if res.NumRows() != 8 {
				t.Fatalf("partition %d has %d rows", p, res.NumRows())
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("%d non-empty partitions, want 1", nonEmpty)
	}
}

// TestStageBoundaryFirstCommittedAttemptWins: an aborted attempt left a
// partial, uncommitted file set behind; the sender's backup attempt
// committed a complete set under a fresh attempt namespace. Receivers must
// ignore the partial attempt and collect exactly the committed one — the
// race the pre-attempt protocol could not survive.
func TestStageBoundaryFirstCommittedAttemptWins(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("xa")
	svc.MustCreateBucket("xb")
	opts := Options{
		Variant: Variant{Levels: 1},
		Buckets: []string{"xa", "xb"},
		Prefix:  "q4",
		Poll:    time.Millisecond,
		MaxWait: 10 * time.Second,
	}
	const senders, parts = 2, 3
	b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
	client := s3.NewClient(svc, env)

	// Sender 0's attempt 0 died after writing only partition 0 — a stray
	// file with garbage content and, crucially, no commit marker.
	r := b.senders(client, opts, false)
	if err := client.Put(r.bucket(0), r.key(fileKey, 0, 0).String(), []byte("not an lpq file")); err != nil {
		t.Fatal(err)
	}
	// Its backup attempt publishes the full set under attempt 1; sender 1 is
	// healthy on attempt 0.
	in0, in1 := stageTestChunk(0, 30), stageTestChunk(30, 30)
	b0 := b
	b0.Attempt = 1
	if err := PublishStage(client, opts, b0, 0, in0, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := PublishStage(client, opts, b, 1, in1, []string{"k"}); err != nil {
		t.Fatal(err)
	}

	total := 0
	for p := 0; p < parts; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		total += res.NumRows()
	}
	if total != 60 {
		t.Fatalf("collected %d rows, want 60 (stray attempt not ignored?)", total)
	}
}

// TestStageBoundaryDuplicateAttemptsCollectOnce: both the original and the
// backup of a sender completed (byte-identical file sets, as stage
// fragments are deterministic). Receivers read each sender exactly once —
// the lowest committed attempt — for both variants.
func TestStageBoundaryDuplicateAttemptsCollectOnce(t *testing.T) {
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("x")
		opts := Options{
			Variant: Variant{Levels: 1, WriteCombining: wc},
			Buckets: []string{"x"},
			Prefix:  "q5",
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		const senders, parts = 2, 2
		b := Boundary{Stage: 0, Senders: senders, Partitions: parts}
		client := s3.NewClient(svc, env)
		for s := 0; s < senders; s++ {
			in := stageTestChunk(s*20, 20)
			for attempt := 0; attempt < 2; attempt++ {
				ba := b
				ba.Attempt = attempt
				if err := PublishStage(client, opts, ba, s, in, []string{"k"}); err != nil {
					t.Fatalf("wc=%v: %v", wc, err)
				}
			}
		}
		total := 0
		for p := 0; p < parts; p++ {
			res, err := CollectStage(client, opts, b, p)
			if err != nil {
				t.Fatalf("wc=%v partition %d: %v", wc, p, err)
			}
			total += res.NumRows()
		}
		if total != senders*20 {
			t.Fatalf("wc=%v: collected %d rows, want %d (duplicate attempt double-counted?)", wc, total, senders*20)
		}
	}
}

// TestStageBoundaryManySendersAttemptPrefixes: commit-marker discovery is
// List-prefix-based, so sender 1's lookup must not match sender 10..19's
// markers. With 12 senders and sender 1 committed only under attempt 1,
// collectors must read sender 1's attempt-1 files — not conclude from
// sender 10's attempt-0 marker that attempt 0 exists.
func TestStageBoundaryManySendersAttemptPrefixes(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	opts := Options{
		Variant: Variant{Levels: 1},
		Buckets: []string{"x"},
		Prefix:  "q7",
		Poll:    time.Millisecond,
		MaxWait: 5 * time.Second,
	}
	const senders, parts = 12, 2
	b := Boundary{Stage: 0, Senders: senders, Partitions: parts}
	client := s3.NewClient(svc, env)
	for s := 0; s < senders; s++ {
		ba := b
		if s == 1 {
			ba.Attempt = 1 // sender 1's attempt 0 never committed
		}
		if err := PublishStage(client, opts, ba, s, stageTestChunk(s*10, 10), []string{"k"}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for p := 0; p < parts; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		total += res.NumRows()
	}
	if total != senders*10 {
		t.Fatalf("collected %d rows, want %d", total, senders*10)
	}
}

// TestSweepDrainsStaleBoundary: Sweep removes every object under the query
// prefix — loser attempts included — so an identically-named retry starts
// from a clean namespace and collects its own data, not the leftovers'.
func TestSweepDrainsStaleBoundary(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	opts := Options{
		Variant: Variant{Levels: 1},
		Buckets: []string{"x"},
		Prefix:  "q6",
		Poll:    time.Millisecond,
		MaxWait: 10 * time.Second,
	}
	b := Boundary{Stage: 0, Senders: 1, Partitions: 2}
	client := s3.NewClient(svc, env)
	// An aborted run left a committed attempt 3 with 40 rows behind.
	b3 := b
	b3.Attempt = 3
	if err := PublishStage(client, opts, b3, 0, stageTestChunk(0, 40), []string{"k"}); err != nil {
		t.Fatal(err)
	}
	n, err := Sweep(client, opts.Buckets, opts.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("sweep removed nothing")
	}
	if left, err := client.List("x", opts.Prefix); err != nil || len(left) != 0 {
		t.Fatalf("objects after sweep: %d (err %v)", len(left), err)
	}
	// The retry publishes 10 rows under the same prefix; collectors must see
	// exactly those.
	if err := PublishStage(client, opts, b, 0, stageTestChunk(0, 10), []string{"k"}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < 2; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatal(err)
		}
		total += res.NumRows()
	}
	if total != 10 {
		t.Fatalf("retry collected %d rows, want 10 (stale attempt leaked through)", total)
	}
}

// TestStageBoundaryRejectsFloatKey: partition keys must be BIGINT.
func TestStageBoundaryRejectsFloatKey(t *testing.T) {
	env := simenv.NewImmediate()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	opts := Options{Variant: Variant{Levels: 1}, Buckets: []string{"x"}, Prefix: "q3", Poll: time.Millisecond, MaxWait: time.Second}
	schema := columnar.NewSchema(columnar.Field{Name: "f", Type: columnar.Float64})
	c := columnar.NewChunk(schema, 1)
	c.Columns[0].AppendFloat64(1.5)
	client := s3.NewClient(svc, env)
	if err := PublishStage(client, opts, Boundary{Stage: 0, Senders: 1, Partitions: 2}, 0, c, []string{"f"}); err == nil {
		t.Fatal("float partition key accepted")
	}
}

// TestCollectStageListsOncePerBucket: with every sender already committed,
// a collector discovers all commit markers (or combined objects) with at
// most one List per shard bucket — not one per (sender, poll round). The
// PR 3 → PR 4 functional-mode regression came from exactly this request
// inflation.
func TestCollectStageListsOncePerBucket(t *testing.T) {
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		buckets := []string{"xa", "xb", "xc"}
		for _, b := range buckets {
			svc.MustCreateBucket(b)
		}
		opts := Options{
			Variant: Variant{Levels: 1, WriteCombining: wc},
			Buckets: buckets,
			Prefix:  "q8",
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		const senders, parts = 9, 2
		b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
		client := s3.NewClient(svc, env)
		for s := 0; s < senders; s++ {
			if err := PublishStage(client, opts, b, s, stageTestChunk(s*10, 10), []string{"k"}); err != nil {
				t.Fatal(err)
			}
		}
		listsBefore := int64(0)
		for _, bk := range buckets {
			st, err := svc.BucketStats(bk)
			if err != nil {
				t.Fatal(err)
			}
			listsBefore += st.Lists
		}
		res, err := CollectStage(client, opts, b, 0)
		if err != nil {
			t.Fatalf("wc=%v: %v", wc, err)
		}
		if res.NumRows() == 0 {
			t.Fatalf("wc=%v: empty partition 0", wc)
		}
		lists := int64(0)
		for _, bk := range buckets {
			st, err := svc.BucketStats(bk)
			if err != nil {
				t.Fatal(err)
			}
			lists += st.Lists
		}
		if got := lists - listsBefore; got > int64(len(buckets)) {
			t.Errorf("wc=%v: collect issued %d Lists, want at most %d (one per shard bucket)",
				wc, got, len(buckets))
		}
	}
}
