package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/simclock"
)

// runSealedBoundary is runMultiLevelBoundary on the staged protocol, with the
// test in the driver's seat: each fleet's commits — attempt 0 of every worker
// — are sealed into the manifest the next fleet reads.
func runSealedBoundary(t *testing.T, client *s3.Client, opts Options, b Boundary, inputs []*columnar.Chunk, keys []string) []*columnar.Chunk {
	t.Helper()
	sealed := sealBoundary(t, client, opts, b, inputs, keys)
	out := make([]*columnar.Chunk, b.Partitions)
	for p := range out {
		res, err := collectOne(client, opts, b, p, sealed)
		if err != nil {
			t.Fatalf("%v collect partition %d: %v", opts.Variant, p, err)
		}
		out[p] = res
	}
	return out
}

// collectOne is CollectSealed over the one input b, read with opts.Variant.
func collectOne(client *s3.Client, opts Options, b Boundary, part int, sealed []byte) (*columnar.Chunk, error) {
	out, err := CollectSealed(client, opts, part, []Input{{Boundary: b, Variant: opts.Variant, Sealed: sealed}}, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// sealBoundary publishes the senders' inputs — and, multi-level, runs the
// regroup fleet — and returns the manifest the consumers read.
func sealBoundary(t *testing.T, client *s3.Client, opts Options, b Boundary, inputs []*columnar.Chunk, keys []string) []byte {
	t.Helper()
	var sealed []byte
	for s := 0; s < b.Senders; s++ {
		offsets, err := PublishSealed(client, opts, b, s, inputs[s], keys)
		if err != nil {
			t.Fatalf("%v publish sender %d: %v", opts.Variant, s, err)
		}
		sealed = AppendCommit(sealed, 0, offsets)
	}
	if opts.Variant.Levels >= 2 {
		var regrouped []byte
		for g := 0; g < Groups(b.Partitions); g++ {
			offsets, err := RegroupSealed(client, opts, b, g, keys, sealed, math.MaxInt64)
			if err != nil {
				t.Fatalf("%v regroup group %d: %v", opts.Variant, g, err)
			}
			regrouped = AppendCommit(regrouped, 0, offsets)
		}
		sealed = regrouped
	}
	return sealed
}

// TestCollectSealedManyInputs: one CollectSealed over a fragment's three
// inputs — a 1l-wc, a 1l and a 2l-wc boundary of different sender counts in
// one namespace — returns each input's partition byte-identical to a collect
// of that input alone, and bills exactly the GETs the three collects bill.
// On a kernel it pays one window's first-byte latencies: it ends before the
// three collects, run one after another, do.
func TestCollectSealedManyInputs(t *testing.T) {
	const parts = 5
	keys := []string{"k"}
	svc := s3.New(s3.DefaultAWSConfig(nil, 7))
	buckets := []string{"xa", "xb", "xc"}
	for _, bk := range buckets {
		svc.MustCreateBucket(bk)
	}
	k := simclock.New()
	k.Go("fragment", func(p *simclock.Proc) {
		client := s3.NewClient(svc, p)
		opts := Options{Buckets: buckets, Prefix: "q7/e1"}
		var inputs []Input
		for i, v := range []Variant{{Levels: 1, WriteCombining: true}, {Levels: 1}, {Levels: 2, WriteCombining: true}} {
			b := Boundary{Stage: i + 1, Senders: 2 + i, Partitions: parts}
			rows := make([]*columnar.Chunk, b.Senders)
			for s := range rows {
				rows[s] = stageTestChunk(100*i+10*s, 10)
			}
			o := opts
			o.Variant = v
			inputs = append(inputs, Input{Boundary: b, Variant: v, Sealed: sealBoundary(t, client, o, b, rows, keys)})
		}
		for part := 0; part < parts; part++ {
			before, start := billed(t, svc, buckets).Gets, p.Now()
			got, err := CollectSealed(client, opts, part, inputs, math.MaxInt64)
			if err != nil {
				t.Fatalf("partition %d: %v", part, err)
			}
			gets, window := billed(t, svc, buckets).Gets-before, p.Now()-start
			start = p.Now()
			for i, in := range inputs {
				o := opts
				o.Variant = in.Variant
				want, err := collectOne(client, o, in.Boundary, part, in.Sealed)
				if err != nil {
					t.Fatalf("partition %d input %d alone: %v", part, i, err)
				}
				chunksEqualML(t, fmt.Sprintf("partition %d input %d (%v)", part, i, in.Variant), want, got[i])
			}
			if alone := billed(t, svc, buckets).Gets - before - gets; gets != alone {
				t.Errorf("partition %d: one collect billed %d GETs, the three alone %d", part, gets, alone)
			}
			if serial := p.Now() - start; window >= serial {
				t.Errorf("partition %d: one collect took %v, the three alone %v", part, window, serial)
			}
		}
	})
	k.Run()
}

// TestSealedBoundaryMatchesDriverless: on the draws of
// TestMultiLevelRequestsMatchModel, a boundary on the staged protocol
// delivers every partition byte-identical to the driverless one, and bills
// exactly Variant.SealedRequests — no List at all, and no commit marker.
func TestSealedBoundaryMatchesDriverless(t *testing.T) {
	const draws, rows = 64, 3
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < draws; i++ {
		senders, parts, pool := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(4)
		v := Variant{Levels: 1 + rng.Intn(2), WriteCombining: rng.Intn(2) == 1, Buckets: rng.Intn(pool + 1)}
		inputs := make([]*columnar.Chunk, senders)
		for s := range inputs {
			inputs[s] = stageTestChunk(s*rows, rows)
		}
		b := Boundary{Stage: 2, Senders: senders, Partitions: parts}
		run := func(boundary func(*testing.T, *s3.Client, Options, Boundary, []*columnar.Chunk, []string) []*columnar.Chunk) ([]*columnar.Chunk, RequestCount) {
			svc := s3.New(s3.Config{})
			buckets := make([]string, pool)
			for j := range buckets {
				buckets[j] = fmt.Sprintf("x%d", j)
				svc.MustCreateBucket(buckets[j])
			}
			opts := Options{Variant: v, Buckets: buckets, Prefix: "q9", Poll: time.Millisecond, MaxWait: 10 * time.Second}
			out := boundary(t, s3.NewClient(svc, simenv.NewImmediate()), opts, b, inputs, []string{"k"})
			return out, billed(t, svc, buckets)
		}
		want, _ := run(runMultiLevelBoundary)
		got, bill := run(runSealedBoundary)
		for p := range want {
			chunksEqualML(t, fmt.Sprintf("draw %d: %v at S %d, P %d, partition %d", i, v, senders, parts, p), want[p], got[p])
		}
		if model := v.SealedRequests(senders, parts); bill != model {
			t.Errorf("draw %d: %v at S %d, P %d over %d buckets: billed %+v, staged model predicts %+v",
				i, v, senders, parts, pool, bill, model)
		}
	}
}

// TestSealedReadsTheSealedAttempt: on the staged protocol a reader takes the
// attempt the manifest names, not the lowest committed one. Sender 1 and
// regroup worker 0 each committed a poisoned attempt 0 — rows that are not
// theirs — beside the attempt 1 the driver sealed; the collected rows are
// the fault-free ones. Every stage-reachable variant.
func TestSealedReadsTheSealedAttempt(t *testing.T) {
	const senders, parts = 3, 6
	keys := []string{"k"}
	inputs := make([]*columnar.Chunk, senders)
	for s := range inputs {
		inputs[s] = stageTestChunk(s*20, 20)
	}
	poison := stageTestChunk(1000, 7)
	for _, v := range []Variant{{Levels: 1}, {Levels: 1, WriteCombining: true}, {Levels: 2}, {Levels: 2, WriteCombining: true}} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("xa")
		svc.MustCreateBucket("xb")
		client := s3.NewClient(svc, env)
		opts := Options{Variant: v, Buckets: []string{"xa", "xb"}, Prefix: "q", Poll: time.Millisecond, MaxWait: time.Second}
		b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
		want := runMultiLevelBoundary(t, client, opts, b, inputs, keys)

		opts.Prefix = "q-sealed"
		// sealed is what the driver seals; poisoned names sender 1's attempt 0.
		var sealed, poisoned []byte
		for s, in := range inputs {
			ba := b
			if s == 1 {
				offsets, err := PublishSealed(client, opts, ba, s, poison, keys)
				if err != nil {
					t.Fatal(err)
				}
				poisoned = AppendCommit(poisoned, 0, offsets)
				ba.Attempt = 1
			}
			offsets, err := PublishSealed(client, opts, ba, s, in, keys)
			if err != nil {
				t.Fatal(err)
			}
			sealed = AppendCommit(sealed, ba.Attempt, offsets)
			if s != 1 {
				poisoned = AppendCommit(poisoned, ba.Attempt, offsets)
			}
		}
		if v.Levels >= 2 {
			var regrouped []byte
			for g := 0; g < Groups(parts); g++ {
				ba := b
				if g == 0 {
					// Regroup worker 0's attempt 0 merged the poisoned attempt.
					if _, err := RegroupSealed(client, opts, ba, g, keys, poisoned, math.MaxInt64); err != nil {
						t.Fatal(err)
					}
					ba.Attempt = 1
				}
				offsets, err := RegroupSealed(client, opts, ba, g, keys, sealed, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				regrouped = AppendCommit(regrouped, ba.Attempt, offsets)
			}
			sealed = regrouped
		}
		for p := 0; p < parts; p++ {
			got, err := collectOne(client, opts, b, p, sealed)
			if err != nil {
				t.Fatalf("%v partition %d: %v", v, p, err)
			}
			chunksEqualML(t, fmt.Sprintf("%v partition %d", v, p), want[p], got)
		}
	}
}

// TestWrittenNamesWhatPublishLeaves: for every stage-reachable variant — a
// pool the variant narrows included — at attempts 0 and 1, Written names
// exactly the objects each writer's PublishSealed or RegroupSealed left in
// the buckets, and Delete of all those names empties the namespace while an
// object of a neighbouring query stays.
func TestWrittenNamesWhatPublishLeaves(t *testing.T) {
	const senders, parts = 3, 7
	keys := []string{"k"}
	buckets := []string{"xa", "xb", "xc"}
	neighbour := Object{"xa", "fn/q30/e1/s4/snd0-a0"}
	for _, v := range []Variant{{Levels: 1, Buckets: 2}, {Levels: 1, WriteCombining: true}, {Levels: 2}, {Levels: 2, WriteCombining: true, Buckets: 2}} {
		svc := s3.New(s3.Config{})
		for _, bk := range buckets {
			svc.MustCreateBucket(bk)
		}
		client := s3.NewClient(svc, simenv.NewImmediate())
		opts := Options{Variant: v, Buckets: buckets, Prefix: "fn/q3/e1"}
		listed := func() map[Object]bool {
			set := map[Object]bool{}
			for _, bk := range buckets {
				entries, err := client.List(bk, "")
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					set[Object{bk, e.Key}] = true
				}
			}
			return set
		}
		var all []Object
		// check runs one writer's publish and compares what it left with
		// what Written names for it.
		check := func(b Boundary, writer int, regroup bool, publish func() error) {
			t.Helper()
			before := listed()
			if err := publish(); err != nil {
				t.Fatalf("%v writer %d (regroup %v) attempt %d: %v", v, writer, regroup, b.Attempt, err)
			}
			left := map[Object]bool{}
			for o := range listed() {
				if !before[o] {
					left[o] = true
				}
			}
			named, err := Written(nil, opts, b, writer, regroup)
			if err != nil {
				t.Fatal(err)
			}
			got := map[Object]bool{}
			for _, o := range named {
				got[o] = true
			}
			if len(got) != len(named) || !maps.Equal(got, left) {
				t.Errorf("%v writer %d (regroup %v) attempt %d: Written names %v, the publish left %v", v, writer, regroup, b.Attempt, named, left)
			}
			all = append(all, named...)
		}
		for attempt := 0; attempt < 2; attempt++ {
			b := Boundary{Stage: 4, Attempt: attempt, Senders: senders, Partitions: parts}
			var sealed []byte
			for s := 0; s < senders; s++ {
				check(b, s, false, func() error {
					offsets, err := PublishSealed(client, opts, b, s, stageTestChunk(s*10, 10), keys)
					sealed = AppendCommit(sealed, attempt, offsets)
					return err
				})
			}
			for g := 0; v.Levels >= 2 && g < Groups(parts); g++ {
				check(b, g, true, func() error {
					_, err := RegroupSealed(client, opts, b, g, keys, sealed, math.MaxInt64)
					return err
				})
			}
		}
		b := Boundary{Stage: 4, Senders: senders, Partitions: parts}
		if _, err := Written(nil, opts, b, senders, false); !errors.Is(err, errShape) {
			t.Errorf("%v: Written of sender %d of %d returned %v", v, senders, senders, err)
		}
		if _, err := Written(nil, opts, b, Groups(parts), true); !errors.Is(err, errShape) {
			t.Errorf("%v: Written of group %d of %d returned %v", v, Groups(parts), Groups(parts), err)
		}

		if err := client.Put(neighbour.Bucket, neighbour.Key, []byte("x")); err != nil {
			t.Fatal(err)
		}
		lists := billed(t, svc, buckets).Lists
		if err := Delete(client, all); err != nil {
			t.Fatal(err)
		}
		if n := billed(t, svc, buckets).Lists - lists; n != 0 {
			t.Errorf("%v: Delete listed %d times", v, n)
		}
		if left := listed(); !maps.Equal(left, map[Object]bool{neighbour: true}) {
			t.Errorf("%v: after Delete the buckets hold %v, want only %v", v, left, neighbour)
		}
	}
}

// TestSealedRefusesForeignManifest: a manifest that is not the round's —
// cut short, padded, of another fleet size, of the other write-combining
// mode — fails the collect with a manifest error and reads nothing.
func TestSealedRefusesForeignManifest(t *testing.T) {
	const senders, parts = 3, 4
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("x")
	client := s3.NewClient(svc, simenv.NewImmediate())
	opts := Options{Variant: Variant{Levels: 1, WriteCombining: true}, Buckets: []string{"x"}, Prefix: "q"}
	b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
	var sealed, basic []byte
	for s := 0; s < senders; s++ {
		offsets, err := PublishSealed(client, opts, b, s, stageTestChunk(s*10, 10), []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		sealed = AppendCommit(sealed, 0, offsets)
		basic = AppendCommit(basic, 0, nil)
	}
	if _, err := collectOne(client, opts, b, 0, sealed); err != nil {
		t.Fatalf("the manifest itself: %v", err)
	}
	gets := billed(t, svc, []string{"x"}).Gets
	fewer := b
	fewer.Senders = senders - 1
	for name, c := range map[string]struct {
		b        Boundary
		manifest []byte
	}{
		"cut short":           {b, sealed[:len(sealed)-1]},
		"padded":              {b, append(append([]byte{}, sealed...), 0)},
		"a writer too many":   {fewer, sealed},
		"basic commits":       {b, basic},
		"empty":               {b, []byte{}},
		"another slot count":  {b, AppendCommit(AppendCommit(AppendCommit(nil, 0, []int64{0, 1}), 0, []int64{0, 1}), 0, []int64{0, 1})},
		"an overflowing sum":  {b, AppendCommit(sealed, 0, []int64{0, math.MaxInt64, -1, 0, 0})[len(sealed):]},
		"an attempt past int": {b, append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, sealed[1:]...)},
	} {
		if _, err := collectOne(client, opts, c.b, 0, c.manifest); !errors.Is(err, errManifest) {
			t.Errorf("%s: collect returned %v, want a manifest error", name, err)
		}
	}
	if got := billed(t, svc, []string{"x"}).Gets; got != gets {
		t.Errorf("refused manifests read %d objects", got-gets)
	}
	if _, err := collectOne(client, opts, b, 0, nil); !errors.Is(err, errManifest) {
		t.Errorf("collect without a manifest returned %v", err)
	}
}

// FuzzSealManifest: the ready marker's value comes off DynamoDB, an untrusted
// edge. Reading any bytes as the manifest of any round — writers, slots,
// slot, either write-combining mode — gives refs or a typed error, never a
// panic, and refs only for as many writers as the bytes can hold (two bytes
// each at least). And AppendCommit → sealedRefs round-trips: a manifest
// built from the input reads back every writer's attempt and slot range, for
// the whole round and for a one-writer round of each writer (how a regroup
// stage's manifest is read).
func FuzzSealManifest(f *testing.F) {
	f.Add([]byte{0, 3, 0, 10, 5}, 1, 2, 1, true)
	f.Add([]byte{1, 0, 0, 0}, 2, 4, 3, false)
	f.Add(AppendCommit(AppendCommit(nil, 2, []int64{0, 7, 7, 30}), 0, []int64{0, 0, 9, 9}), 2, 3, 2, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1, 1, 0, true)
	f.Fuzz(func(t *testing.T, data []byte, writers, slots, slot int, wc bool) {
		opts := Options{Variant: Variant{Levels: 1, WriteCombining: wc}, Buckets: []string{"x"}, Prefix: "q"}
		r := round{opts: opts, stage: 1, writers: writers, slots: slots, sealed: true}
		refs, err := r.sealedRefs(manifest{data, writers}, slot)
		if err != nil {
			if !errors.Is(err, errManifest) && !errors.Is(err, errShape) {
				t.Fatalf("untyped error %v", err)
			}
		} else {
			if len(refs) != writers || writers > len(data)/2 {
				t.Fatalf("%d refs of %d writers from %d bytes", len(refs), writers, len(data))
			}
			for _, f := range refs {
				if f.lo < 0 || f.hi < f.lo || f.attempt < 0 || f.key == "" {
					t.Fatalf("ref %+v", f)
				}
			}
		}

		// Round trip: a round of w writers and s slots whose commits are drawn
		// from the input.
		w, s := 1+absMod(writers, 8), 1+absMod(slots, 8)
		next := func(i int) int64 {
			if len(data) == 0 {
				return int64(i)
			}
			return int64(data[i%len(data)]) << (i % 20)
		}
		var built []byte
		commits := make([][]int64, w)
		for i := range commits {
			if wc {
				commits[i] = make([]int64, s+1)
				commits[i][0] = next(i)
				for j := 1; j <= s; j++ {
					commits[i][j] = commits[i][j-1] + next(i*s+j)
				}
			}
			built = AppendCommit(built, int(next(i)%5), commits[i])
		}
		whole := round{opts: opts, stage: 1, writers: w, slots: s, sealed: true}
		for at := 0; at < s; at++ {
			refs, err := whole.sealedRefs(manifest{built, w}, at)
			if err != nil {
				t.Fatalf("round trip of %d writers × %d slots: %v", w, s, err)
			}
			for i, got := range refs {
				one := whole
				one.writer0, one.writers = i, 1
				alone, err := one.sealedRefs(manifest{built, w}, at)
				if err != nil || alone[0] != got {
					t.Fatalf("writer %d alone reads %+v, %v; in the round %+v", i, alone, err, got)
				}
				want := whole.slotRef(i, int(next(i)%5), at, 0, 0)
				if wc {
					want = whole.slotRef(i, int(next(i)%5), at, commits[i][at], commits[i][at+1])
				}
				if got != want {
					t.Fatalf("writer %d slot %d: read %+v, sealed %+v", i, at, got, want)
				}
			}
		}
	})
}

// FuzzReadyMarker: a consumer's ready marker comes off DynamoDB too. Splitting
// any bytes into any count of manifests gives a typed error, or that many
// manifests that leave at least a byte of the value to each length prefix and
// that AppendMarker rebuilds into a value splitting into them again — never a
// panic, and no more manifests than the bytes hold. (A prefix may be an
// overlong uvarint, so the rebuilt value can be shorter.) And AppendMarker →
// SplitMarker round-trips manifests cut from the input, empty ones included.
func FuzzReadyMarker(f *testing.F) {
	f.Add([]byte{2, 0, 3, 3, 1, 2, 3}, 2)
	f.Add(AppendMarker(AppendMarker(nil, []byte{0, 0}), []byte{1, 0, 0, 0}), 2)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1)
	f.Add([]byte{5, 1}, 1)
	f.Add([]byte{0, 0}, 1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		parts, err := SplitMarker(data, n)
		if err != nil {
			if !errors.Is(err, errManifest) {
				t.Fatalf("untyped error %v", err)
			}
		} else {
			held := n
			var rebuilt []byte
			for _, p := range parts {
				held += len(p)
				rebuilt = AppendMarker(rebuilt, p)
			}
			if len(parts) != n || held > len(data) {
				t.Fatalf("%d manifests of %d, %d bytes with a prefix each, from %d bytes", len(parts), n, held, len(data))
			}
			again, err := SplitMarker(rebuilt, n)
			if err != nil || !slices.EqualFunc(again, parts, bytes.Equal) {
				t.Fatalf("split %x into %x, which rebuild %x, which splits into %x, %v", data, parts, rebuilt, again, err)
			}
		}

		// Round trip: k manifests cut from the input at lengths it draws.
		k := 1 + absMod(n, 5)
		var marker []byte
		want := make([][]byte, k)
		rest := data
		for i := range want {
			size := 0
			if len(rest) > 0 {
				size = int(rest[0]) % (len(rest) + 1)
			}
			want[i], rest = rest[:size], rest[size:]
			marker = AppendMarker(marker, want[i])
		}
		got, err := SplitMarker(marker, k)
		if err != nil {
			t.Fatalf("round trip of %d manifests: %v", k, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("manifest %d: split %x, appended %x", i, got[i], want[i])
			}
		}
		if _, err := SplitMarker(append(marker, 0), k); err == nil {
			t.Fatalf("%d manifests and a trailing byte split clean", k)
		}
		if _, err := SplitMarker(marker, k+1); err == nil {
			t.Fatalf("%d manifests split as %d", k, k+1)
		}
	})
}

func absMod(n, m int) int {
	n %= m
	if n < 0 {
		n = -n
	}
	return n
}
