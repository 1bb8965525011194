package exchange

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
)

func chunksEqualML(t *testing.T, tag string, a, b *columnar.Chunk) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d rows vs %d", tag, a.NumRows(), b.NumRows())
	}
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: %d columns vs %d", tag, len(a.Columns), len(b.Columns))
	}
	for ci := range a.Columns {
		av, bv := a.Columns[ci], b.Columns[ci]
		if av.Type != bv.Type {
			t.Fatalf("%s: column %d type %v vs %v", tag, ci, av.Type, bv.Type)
		}
		for i := 0; i < a.NumRows(); i++ {
			switch av.Type {
			case columnar.Int64:
				if av.Int64s[i] != bv.Int64s[i] {
					t.Fatalf("%s: column %d row %d: %d vs %d", tag, ci, i, av.Int64s[i], bv.Int64s[i])
				}
			case columnar.Float64:
				if av.Float64s[i] != bv.Float64s[i] {
					t.Fatalf("%s: column %d row %d: %v vs %v", tag, ci, i, av.Float64s[i], bv.Float64s[i])
				}
			default:
				if av.Bools[i] != bv.Bools[i] {
					t.Fatalf("%s: column %d row %d: %v vs %v", tag, ci, i, av.Bools[i], bv.Bools[i])
				}
			}
		}
	}
}

// runMultiLevelBoundary publishes all senders, runs the regroup fleet when
// the variant is multi-level, and collects every partition — the fault-free
// sequential execution whose request counts the model predicts exactly.
func runMultiLevelBoundary(t *testing.T, client *s3.Client, opts Options, b Boundary, inputs []*columnar.Chunk, keys []string) []*columnar.Chunk {
	t.Helper()
	for s := 0; s < b.Senders; s++ {
		if err := PublishStage(client, opts, b, s, inputs[s], keys); err != nil {
			t.Fatalf("%v publish sender %d: %v", opts.Variant, s, err)
		}
	}
	if opts.Variant.Levels >= 2 {
		for g := 0; g < Groups(b.Partitions); g++ {
			if err := RegroupStage(client, opts, b, g, keys); err != nil {
				t.Fatalf("%v regroup group %d: %v", opts.Variant, g, err)
			}
		}
	}
	out := make([]*columnar.Chunk, b.Partitions)
	for p := 0; p < b.Partitions; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatalf("%v collect partition %d: %v", opts.Variant, p, err)
		}
		out[p] = res
	}
	return out
}

// TestStageBoundaryMultiLevelByteIdentity: at matching (S, P), the chunks a
// multi-level boundary delivers are identical to the single-round boundary's
// — same rows, same (sender, row) order, partition by partition — for both
// write-combining modes, including partitions that end up empty. The grid
// is uneven on purpose (P = 11 → 4 groups of 3, last group of 2).
func TestStageBoundaryMultiLevelByteIdentity(t *testing.T) {
	const senders, parts = 4, 11
	keys := []string{"k", "k2"}
	inputs := make([]*columnar.Chunk, senders)
	for s := 0; s < senders; s++ {
		inputs[s] = stageTestChunk(s*35, 35)
	}
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		buckets := []string{"xa", "xb", "xc"}
		for _, bk := range buckets {
			svc.MustCreateBucket(bk)
		}
		client := s3.NewClient(svc, env)
		base := Options{
			Buckets: buckets,
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		b := Boundary{Stage: 3, Senders: senders, Partitions: parts}

		single := base
		single.Prefix = "qs"
		single.Variant = Variant{Levels: 1, WriteCombining: wc}
		want := runMultiLevelBoundary(t, client, single, b, inputs, keys)

		multi := base
		multi.Prefix = "qm"
		multi.Variant = Variant{Levels: 2, WriteCombining: wc}
		got := runMultiLevelBoundary(t, client, multi, b, inputs, keys)

		for p := 0; p < parts; p++ {
			chunksEqualML(t, fmt.Sprintf("wc=%v partition %d", wc, p), want[p], got[p])
		}
	}
}

// billed sums the S3 requests every one of the buckets was billed.
func billed(t *testing.T, svc *s3.Service, buckets []string) RequestCount {
	t.Helper()
	var got RequestCount
	for _, bk := range buckets {
		st, err := svc.BucketStats(bk)
		if err != nil {
			t.Fatal(err)
		}
		got.Puts += st.Puts
		got.Gets += st.Gets
		got.Lists += st.Lists
	}
	return got
}

// TestMultiLevelRequestsMatchModel holds the driverless boundary protocol to
// its analytic model integer-exactly: the billed Put/Get/List counts of a
// fault-free publish → regroup → collect run equal Variant.Requests, Lists
// included. The shapes are seeded draws — S and P in [1, 40], a pool of 1–4
// shard buckets, a Variant.Buckets that narrows it or not, any of the four
// stage-reachable variants — so min(S, B) < S, short last groups and
// narrowed pools all occur. TestSealedBoundaryMatchesDriverless holds the
// staged protocol to Variant.SealedRequests on the same draws.
func TestMultiLevelRequestsMatchModel(t *testing.T) {
	const draws, rows = 64, 3
	rng := rand.New(rand.NewSource(26))
	narrowed := 0
	for i := 0; i < draws; i++ {
		senders, parts, pool := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(4)
		v := Variant{Levels: 1 + rng.Intn(2), WriteCombining: rng.Intn(2) == 1, Buckets: rng.Intn(pool + 1)}
		if v.Buckets > 0 && v.Buckets < pool {
			narrowed++
		}
		svc := s3.New(s3.Config{})
		buckets := make([]string, pool)
		for j := range buckets {
			buckets[j] = fmt.Sprintf("x%d", j)
			svc.MustCreateBucket(buckets[j])
		}
		opts := Options{
			Variant: v,
			Buckets: buckets,
			Prefix:  "q9",
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		inputs := make([]*columnar.Chunk, senders)
		for s := range inputs {
			inputs[s] = stageTestChunk(s*rows, rows)
		}
		b := Boundary{Stage: 2, Senders: senders, Partitions: parts}
		runMultiLevelBoundary(t, s3.NewClient(svc, simenv.NewImmediate()), opts, b, inputs, []string{"k"})

		if got, want := billed(t, svc, buckets), v.Requests(senders, parts, pool); got != want {
			t.Errorf("draw %d: %+v at S %d, P %d over %d buckets: billed %+v, model predicts %+v",
				i, v, senders, parts, pool, got, want)
		}
	}
	if narrowed == 0 {
		t.Errorf("no draw of %d narrowed its pool", draws)
	}
}

// TestStageBoundaryMultiLevelFirstCommittedAttemptWins: attempt versioning
// composes across both rounds. A sender's aborted round-1 attempt (garbage,
// uncommitted) must be invisible; duplicate committed sender attempts and
// duplicate committed regroup attempts must each be collected exactly once
// (lowest attempt wins). Both write-combining modes.
func TestStageBoundaryMultiLevelFirstCommittedAttemptWins(t *testing.T) {
	const senders, parts = 3, 6
	keys := []string{"k"}
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("xa")
		svc.MustCreateBucket("xb")
		client := s3.NewClient(svc, env)
		opts := Options{
			Variant: Variant{Levels: 2, WriteCombining: wc},
			Buckets: []string{"xa", "xb"},
			Prefix:  "q10",
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		b := Boundary{Stage: 1, Senders: senders, Partitions: parts}

		if !wc {
			// Sender 0's attempt 0 died after one group object, no commit.
			r := b.senders(client, opts, false)
			if err := client.Put(r.bucket(0), r.key(fileKey, 0, 0).String(), []byte("not an lpq file")); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < senders; s++ {
			in := stageTestChunk(s*20, 20)
			attempts := []int{0}
			if s == 0 {
				attempts = []int{1} // backup after the aborted attempt 0
			} else if s == 1 {
				attempts = []int{0, 1} // both original and backup committed
			}
			for _, a := range attempts {
				ba := b
				ba.Attempt = a
				if err := PublishStage(client, opts, ba, s, in, keys); err != nil {
					t.Fatalf("wc=%v sender %d attempt %d: %v", wc, s, a, err)
				}
			}
		}
		// Regroup group 0 ran twice (original + speculated backup); the
		// others once.
		for g := 0; g < Groups(parts); g++ {
			attempts := []int{0}
			if g == 0 {
				attempts = []int{0, 1}
			}
			for _, a := range attempts {
				ba := b
				ba.Attempt = a
				if err := RegroupStage(client, opts, ba, g, keys); err != nil {
					t.Fatalf("wc=%v regroup %d attempt %d: %v", wc, g, a, err)
				}
			}
		}
		total := 0
		for p := 0; p < parts; p++ {
			res, err := CollectStage(client, opts, b, p)
			if err != nil {
				t.Fatalf("wc=%v partition %d: %v", wc, p, err)
			}
			kcol := []*columnar.Vector{res.Column("k")}
			for i := 0; i < res.NumRows(); i++ {
				if got := HashPartition(kcol, i, parts); got != p {
					t.Fatalf("wc=%v: row in partition %d, want %d", wc, p, got)
				}
			}
			total += res.NumRows()
		}
		if total != senders*20 {
			t.Fatalf("wc=%v: collected %d rows, want %d (duplicate or stray attempt leaked)", wc, total, senders*20)
		}
	}
}
