package exchange

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

// The golden listings pin every object a boundary writes: bucket, name (the
// write-combined names carry the byte offsets), size and content hash. They
// were recorded at the commit before the scatter partitioner and the shared
// slot encoder replaced the per-partition Gather/WriteFile/concat loops (PR
// 12's parent), so a moved byte or a renamed object fails here. The four
// grid-*.golden files were re-recorded once since, in PR 14, when the grid
// exchange became a composition of boundary rounds: its objects took the
// boundary name shapes under <prefix>/r<level>/g<group>/s0/ (with -a0), and
// the basic variants gained one zero-byte commit marker per worker and level;
// sizes and content hashes of all non-empty objects are the recorded ones.
// The eight boundary-*.golden files are the PR 12 parent's. Regenerate only
// for an intended protocol or format change:
//
//	go test ./internal/exchange/ -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this build's output")

// listObjects renders every object of the service, buckets and keys sorted.
func listObjects(t *testing.T, svc *s3.Service) string {
	t.Helper()
	env := simenv.NewImmediate()
	var buf bytes.Buffer
	for _, bucket := range svc.Buckets() {
		entries, err := svc.List(env, bucket, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, _, err := svc.Get(env, bucket, e.Key)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %d %x\n", bucket, e.Key, e.Size, sha256.Sum256(data))
		}
	}
	return buf.String()
}

// checkGolden compares listing with testdata/<name>.golden line by line.
func checkGolden(t *testing.T, name, listing string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(listing), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if listing == string(want) {
		return
	}
	got, exp := strings.Split(listing, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("%s: %d objects, golden %d; first difference at line %d:\n got  %s\n want %s",
				name, len(got)-1, len(exp)-1, i+1, g, e)
		}
	}
}

func goldenService() (*s3.Service, []string) {
	svc := s3.New(s3.Config{})
	buckets := []string{"gx0", "gx1", "gx2"}
	for _, b := range buckets {
		svc.MustCreateBucket(b)
	}
	return svc, buckets
}

// TestStageBoundaryGolden: S = 4 senders of a TPC-H LINEITEM sample (seed 7)
// publish on a composite key into P = 30 and P = 256 partitions under every
// boundary variant, the regroup fleet runs where the variant has one, and the
// resulting object listing must match the recorded one byte for byte.
func TestStageBoundaryGolden(t *testing.T) {
	const senders = 4
	inputs := tpch.SplitFiles(tpch.Gen{SF: 0.001, Seed: 7}.Generate(), senders)
	keys := []string{"l_orderkey", "l_linenumber"}
	for _, parts := range []int{30, 256} {
		for _, v := range AllVariants[:4] {
			svc, buckets := goldenService()
			client := s3.NewClient(svc, simenv.NewImmediate())
			opts := Options{Variant: v, Buckets: buckets, Prefix: "g", Poll: time.Millisecond, MaxWait: 30 * time.Second}
			b := Boundary{Stage: 3, Attempt: 1, Senders: senders, Partitions: parts}
			for s := 0; s < senders; s++ {
				if err := PublishStage(client, opts, b, s, inputs[s], keys); err != nil {
					t.Fatalf("%v P=%d publish %d: %v", v, parts, s, err)
				}
			}
			if v.Levels >= 2 {
				for g := 0; g < Groups(parts); g++ {
					if err := RegroupStage(client, opts, b, g, keys); err != nil {
						t.Fatalf("%v P=%d regroup %d: %v", v, parts, g, err)
					}
				}
			}
			checkGolden(t, fmt.Sprintf("boundary-%v-p%d", v, parts), listObjects(t, svc))
		}
	}
}

// TestGridExchangeGolden pins the objects of the symmetric k-level exchange
// (Worker.Run) the same way, at P = 6.
func TestGridExchangeGolden(t *testing.T) {
	const p = 6
	inputs := tpch.SplitFiles(tpch.Gen{SF: 0.0002, Seed: 7}.Generate(), p)
	for _, v := range []Variant{{Levels: 1}, {Levels: 1, WriteCombining: true}, {Levels: 2}, {Levels: 2, WriteCombining: true}} {
		svc, buckets := goldenService()
		opts := DefaultOptions(v, buckets...)
		opts.Prefix = "g"
		errs := make([]error, p)
		var wg sync.WaitGroup
		for id := 0; id < p; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				w := Worker{ID: id, P: p, Client: s3.NewClient(svc, simenv.NewImmediate())}
				_, errs[id] = w.Run(opts, inputs[id], "l_orderkey")
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("%v worker %d: %v", v, id, err)
			}
		}
		checkGolden(t, fmt.Sprintf("grid-%v-p%d", v, p), listObjects(t, svc))
	}
}

// gatherPartitions is the partitioner this package used before the
// single-pass scatter: per-partition row-index lists, one Gather each. It is
// kept as the reference the scatter is checked against.
func gatherPartitions(chunk *columnar.Chunk, keys []string, parts int) []*columnar.Chunk {
	cols := make([]*columnar.Vector, len(keys))
	for i, k := range keys {
		cols[i] = chunk.Column(k)
	}
	sel := make([][]int, parts)
	for i := 0; i < chunk.NumRows(); i++ {
		p := HashPartition(cols, i, parts)
		sel[p] = append(sel[p], i)
	}
	out := make([]*columnar.Chunk, parts)
	for p := range out {
		out[p] = chunk.Gather(sel[p])
	}
	return out
}

// TestScatterMatchesGather: on random keys, row counts and partition counts
// the slices of the scattered chunk are exactly the chunks the old
// Gather(sel[p]) partitioner produced — same rows, same order.
func TestScatterMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "k2", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Float64},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = 0
		}
		parts := 1 + rng.Intn(300)
		spread := int64(1 + rng.Intn(1000))
		c := columnar.NewChunk(schema, n)
		for i := 0; i < n; i++ {
			c.Columns[0].AppendInt64(rng.Int63n(spread) - spread/2)
			c.Columns[1].AppendInt64(rng.Int63n(5))
			c.Columns[2].AppendFloat64(rng.NormFloat64())
			c.Columns[3].AppendBool(rng.Intn(2) == 0)
		}
		keys := []string{"k", "k2"}[:1+trial%2]
		slots, err := hashSlots(c, keys, parts)
		if err != nil {
			t.Fatal(err)
		}
		scattered, bounds := scatter(c, slots, parts)
		if len(bounds) != parts+1 || bounds[0] != 0 || bounds[parts] != n {
			t.Fatalf("trial %d: bounds %v for %d rows in %d partitions", trial, bounds, n, parts)
		}
		want := gatherPartitions(c, keys, parts)
		for p := 0; p < parts; p++ {
			chunksEqualML(t, fmt.Sprintf("trial %d partition %d/%d", trial, p, parts), scattered.Slice(bounds[p], bounds[p+1]), want[p])
		}
	}
}

// TestPublishAllocatesInProportion: one sender publishing into P = 256
// partitions allocates a small multiple of the bytes it was given — the
// partition ids, the scattered copy, the one output buffer, the store's own
// copy of what is Put — plus a footer-sized constant per slot. It used to
// allocate two default row-group buffers (1 MiB per column each) per
// partition: gigabytes for these 190 KB.
func TestPublishAllocatesInProportion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	const parts = 256
	input := tpch.SplitFiles(tpch.Gen{SF: 0.001, Seed: 7}.Generate(), 4)[0]
	keys := []string{"l_orderkey"}
	for _, v := range AllVariants[:4] {
		svc, buckets := goldenService()
		client := s3.NewClient(svc, simenv.NewImmediate())
		opts := Options{Variant: v, Buckets: buckets, Prefix: "a", Poll: time.Millisecond, MaxWait: time.Second}
		b := Boundary{Stage: 1, Senders: 1, Partitions: parts}
		slots := parts
		if v.Levels >= 2 {
			slots = Groups(parts)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := PublishStage(client, opts, b, 0, input, keys)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(4*input.ByteSize() + 8<<10*int64(slots)); got > limit {
			t.Errorf("%v: publishing %d bytes into %d slots allocated %d bytes, want ≤ %d", v, input.ByteSize(), slots, got, limit)
		} else {
			t.Logf("%v: %d input bytes, %d slots: %d bytes allocated (limit %d)", v, input.ByteSize(), slots, got, limit)
		}
	}
}
