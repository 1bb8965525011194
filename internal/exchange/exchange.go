package exchange

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
)

// Options configure one exchange execution.
type Options struct {
	// Variant selects the algorithm (levels × write combining).
	Variant Variant
	// Buckets is the pool of pre-created bucket names the file matrix is
	// sharded over (§4.4.1: encode IDs in the bucket name to multiply the
	// rate limit). Must be non-empty.
	Buckets []string
	// Prefix namespaces this exchange's objects (e.g. a query ID).
	Prefix string
	// Poll is the receiver's retry interval while waiting for files. In
	// functional mode the interval is an upper bound: poll sleeps park on
	// the completion signal s3.Put broadcasts (simenv.Notify) and wake the
	// moment a sender's file lands, with the timed poll as fallback.
	Poll time.Duration
	// MaxWait bounds the receiver's total wait per file.
	MaxWait time.Duration
}

// shardPool narrows the bucket pool to the variant's chosen shard count
// (Variant.Buckets). Applied at every stage-boundary entry point so that a
// plan-chosen B takes effect no matter which worker role executes the
// boundary; sweeps intentionally keep the full pool (debris from an earlier,
// wider choice must still be found).
func (o Options) shardPool() Options {
	if n := o.Variant.Buckets; n > 0 && n < len(o.Buckets) {
		o.Buckets = o.Buckets[:n]
	}
	return o
}

// DefaultOptions returns sensible functional-mode settings.
func DefaultOptions(variant Variant, buckets ...string) Options {
	return Options{
		Variant: variant,
		Buckets: buckets,
		Prefix:  "xchg",
		Poll:    20 * time.Millisecond,
		MaxWait: 2 * time.Minute,
	}
}

// grid maps worker/partition IDs onto the k-dimensional mixed-radix grid of
// the multi-level exchange (§4.4.2).
type grid struct{ factors []int }

func newGrid(p, levels int) grid { return grid{factors: Factorize(p, levels)} }

// coord returns coordinate dim of id.
func (g grid) coord(id, dim int) int {
	for d := 0; d < dim; d++ {
		id /= g.factors[d]
	}
	return id % g.factors[dim]
}

// withCoord returns id with coordinate dim replaced by c.
func (g grid) withCoord(id, dim, c int) int {
	stride := 1
	for d := 0; d < dim; d++ {
		stride *= g.factors[d]
	}
	old := g.coord(id, dim)
	return id + (c-old)*stride
}

// groupID collapses id by removing dimension dim — workers sharing a
// groupID in dim form one exchange group.
func (g grid) groupID(id, dim int) int {
	out, stride := 0, 1
	for d := range g.factors {
		if d == dim {
			continue
		}
		out += g.coord(id, d) * stride
		stride *= g.factors[d]
	}
	return out
}

// groupMembers lists the worker IDs in id's group of dimension dim.
func (g grid) groupMembers(id, dim int) []int {
	out := make([]int, g.factors[dim])
	for c := 0; c < g.factors[dim]; c++ {
		out[c] = g.withCoord(id, dim, c)
	}
	return out
}

// Hash64 is the partitioning hash (splitmix64 finalizer), shared with the
// engine's hash-join table.
func Hash64(x int64) uint64 { return columnar.Hash64(x) }

// PartitionOf maps a key value to its final partition in [0, P).
func PartitionOf(key int64, p int) int { return int(Hash64(key) % uint64(p)) }

// Worker is one participant's context.
type Worker struct {
	ID     int
	P      int
	Client *s3.Client
}

func (o *Options) bucketFor(round, group int) string {
	return o.Buckets[(round*31+group)%len(o.Buckets)]
}

func (o *Options) fileName(round, group, sender, receiver int) string {
	return fmt.Sprintf("%s/r%d/g%d/snd%d/rcv%d", o.Prefix, round, group, sender, receiver)
}

func (o *Options) wcPrefix(round, group int) string {
	return fmt.Sprintf("%s/r%d/g%d/snd", o.Prefix, round, group)
}

// wcName encodes the sender and the cumulative part offsets in the file
// name (§4.4.3 second variant: "we encode the offsets into the file name").
func (o *Options) wcName(round, group, sender int, offsets []int64) string {
	return string(appendOffsets(fmt.Appendf(nil, "%s%d-off", o.wcPrefix(round, group), sender), offsets))
}

// parseWcName extracts the sender and slot's byte range from a
// write-combined file name carrying slots+1 offsets.
func parseWcName(key string, slots, slot int) (sender int, lo, hi int64, err error) {
	base := key[strings.LastIndex(key, "/")+1:]
	rest, ok := strings.CutPrefix(base, "snd")
	i := strings.Index(rest, "-off")
	if !ok || i < 0 {
		return 0, 0, 0, fmt.Errorf("exchange: bad wc file name %q", key)
	}
	if sender, err = strconv.Atoi(rest[:i]); err != nil {
		return 0, 0, 0, err
	}
	if lo, hi, err = slotRange(rest[i+4:], slots, slot); err != nil {
		return 0, 0, 0, fmt.Errorf("exchange: bad wc file name %q: %w", key, err)
	}
	return sender, lo, hi, nil
}

// Run executes the exchange for one worker on real data: rows of input are
// routed by the hash of the key column so that afterwards every row with
// PartitionOf(key, P) == w.ID resides at this worker. All P workers must
// call Run concurrently (goroutines or DES processes).
func (w Worker) Run(opts Options, input *columnar.Chunk, key string) (*columnar.Chunk, error) {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return nil, errors.New("exchange: no buckets configured")
	}
	if input.Column(key) == nil {
		return nil, fmt.Errorf("exchange: key column %q missing", key)
	}
	g := newGrid(w.P, opts.Variant.Levels)
	cur := input
	for round := 0; round < opts.Variant.Levels; round++ {
		next, err := w.runRound(opts, g, round, cur, key)
		if err != nil {
			return nil, fmt.Errorf("exchange: worker %d round %d: %w", w.ID, round, err)
		}
		cur = next
	}
	return cur, nil
}

func (w Worker) runRound(opts Options, g grid, round int, cur *columnar.Chunk, key string) (*columnar.Chunk, error) {
	members := g.groupMembers(w.ID, round)
	group := g.groupID(w.ID, round)
	bucket := opts.bucketFor(round, group)

	// In-memory partitioning by the receiver within this round's group:
	// slot c is the member whose coordinate in this round's dimension is c.
	keys := cur.Column(key)
	slot := make([]int, cur.NumRows())
	for i := range slot {
		slot[i] = g.coord(PartitionOf(keys.Int64At(i), w.P), round)
	}
	scattered, bounds := scatter(cur, slot, len(members))
	combined, offsets, err := encodeSlots(scattered, bounds)
	if err != nil {
		return nil, err
	}

	if opts.Variant.WriteCombining {
		// One combined file; cumulative offsets (member-order) in the name.
		name := opts.wcName(round, group, w.ID, offsets)
		if err := w.Client.Put(bucket, name, combined); err != nil {
			return nil, err
		}
		return w.receiveCombined(opts, g, round, group, bucket, members, cur.Schema)
	}

	// Basic variant: one file per (sender, receiver) pair.
	for i, m := range members {
		if err := w.Client.Put(bucket, opts.fileName(round, group, w.ID, m), combined[offsets[i]:offsets[i+1]]); err != nil {
			return nil, err
		}
	}
	blobs := make([][]byte, len(members))
	for i, m := range members {
		name := opts.fileName(round, group, m, w.ID)
		if _, err := w.Client.WaitFor(bucket, name, opts.Poll, opts.MaxWait); err != nil {
			return nil, fmt.Errorf("waiting for %s: %w", name, err)
		}
		if blobs[i], _, err = w.Client.Get(bucket, name, 1); err != nil {
			return nil, err
		}
	}
	return decodeBlobs(cur.Schema, blobs)
}

// wcSlice is one sender's byte range of a combined object for one slot.
type wcSlice struct {
	sender int
	bucket string
	key    string
	lo, hi int64
}

// listCombined polls until all senders' combined objects exist under
// prefix in the given shard buckets, then returns slot's byte range of
// each in ascending sender order — the shared receive protocol of the grid
// exchange and the stage boundaries (§4.4.3: offsets encoded in the file
// name).
func listCombined(client *s3.Client, opts Options, buckets []string, prefix string, senders, slots, slot int) ([]wcSlice, error) {
	type hit struct {
		bucket string
		key    string
	}
	deadline := client.Env().Now() + opts.MaxWait
	var found []hit
	for {
		found = found[:0]
		for _, b := range buckets {
			entries, err := client.List(b, prefix)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				found = append(found, hit{bucket: b, key: e.Key})
			}
		}
		if len(found) >= senders {
			break
		}
		if client.Env().Now() >= deadline {
			return nil, fmt.Errorf("exchange: %d/%d combined files after %v", len(found), senders, opts.MaxWait)
		}
		// Poll-sized sleeps park on the completion signal s3.Put
		// broadcasts (simenv.Notify); the timed poll is the fallback.
		client.Env().Sleep(opts.Poll)
	}
	files := make([]wcSlice, 0, len(found))
	for _, e := range found {
		sender, lo, hi, err := parseWcName(e.key, slots, slot)
		if err != nil {
			return nil, err
		}
		files = append(files, wcSlice{sender: sender, bucket: e.bucket, key: e.key, lo: lo, hi: hi})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].sender < files[j].sender })
	return files, nil
}

// receiveCombined lists the group's combined files (repeating until all
// senders appear), then range-reads this worker's slice of each.
func (w Worker) receiveCombined(opts Options, g grid, round, group int, bucket string, members []int, schema *columnar.Schema) (*columnar.Chunk, error) {
	// This worker's slot within the group (member order).
	slot := -1
	for i, m := range members {
		if m == w.ID {
			slot = i
			break
		}
	}
	files, err := listCombined(w.Client, opts, []string{bucket}, opts.wcPrefix(round, group), len(members), len(members), slot)
	if err != nil {
		return nil, err
	}
	var blobs [][]byte
	for _, f := range files {
		if f.hi == f.lo {
			continue
		}
		data, _, err := w.Client.GetRange(f.bucket, f.key, f.lo, f.hi-f.lo, 1)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, data)
	}
	return decodeBlobs(schema, blobs)
}

// RoundTrace is the phase breakdown of one exchange round (Figure 13).
type RoundTrace struct {
	Write time.Duration // writing this worker's partition file(s)
	Wait  time.Duration // polling until all senders' files exist
	Read  time.Duration // reading the incoming partitions
}

// Trace records a worker's per-phase timings.
type Trace struct {
	Rounds []RoundTrace
	Total  time.Duration
}

// RunSynthetic executes the exchange's request pattern on size-only
// objects: the worker holds inputBytes of partition data, writes its round
// files, and reads its incoming ranges. Used by the DES performance
// experiments (Table 3, Figure 13) where object contents are irrelevant but
// request counts, transfer volumes, rate limits and latencies are exact.
// It returns the number of bytes received in the final round.
func (w Worker) RunSynthetic(opts Options, inputBytes int64) (int64, error) {
	n, _, err := w.RunSyntheticTraced(opts, inputBytes)
	return n, err
}

// RunSyntheticTraced is RunSynthetic with a per-phase breakdown.
func (w Worker) RunSyntheticTraced(opts Options, inputBytes int64) (int64, *Trace, error) {
	if len(opts.Buckets) == 0 {
		return 0, nil, errors.New("exchange: no buckets configured")
	}
	env := w.Client.Env()
	trace := &Trace{}
	begin := env.Now()
	g := newGrid(w.P, opts.Variant.Levels)
	cur := inputBytes
	for round := 0; round < opts.Variant.Levels; round++ {
		members := g.groupMembers(w.ID, round)
		group := g.groupID(w.ID, round)
		bucket := opts.bucketFor(round, group)
		per := cur / int64(len(members))
		var rt RoundTrace

		if opts.Variant.WriteCombining {
			writeStart := env.Now()
			offsets := make([]int64, 0, len(members)+1)
			for i := range members {
				offsets = append(offsets, int64(i)*per)
			}
			offsets = append(offsets, cur)
			name := opts.wcName(round, group, w.ID, offsets)
			if err := w.Client.PutSynthetic(bucket, name, cur); err != nil {
				return 0, trace, err
			}
			rt.Write = env.Now() - writeStart

			waitStart := env.Now()
			prefix := opts.wcPrefix(round, group)
			deadline := env.Now() + opts.MaxWait
			var entries []s3.ListEntry
			for {
				var err error
				entries, err = w.Client.List(bucket, prefix)
				if err != nil {
					return 0, trace, err
				}
				if len(entries) >= len(members) {
					break
				}
				if env.Now() >= deadline {
					return 0, trace, errors.New("exchange: synthetic wc wait timeout")
				}
				env.Sleep(opts.Poll)
			}
			rt.Wait = env.Now() - waitStart

			readStart := env.Now()
			slot := indexOf(members, w.ID)
			var got int64
			for _, e := range entries {
				_, lo, hi, err := parseWcName(e.Key, len(members), slot)
				if err != nil {
					return 0, trace, err
				}
				if hi == lo {
					continue
				}
				_, n, err := w.Client.GetRange(bucket, e.Key, lo, hi-lo, 1)
				if err != nil {
					return 0, trace, err
				}
				got += n
			}
			rt.Read = env.Now() - readStart
			trace.Rounds = append(trace.Rounds, rt)
			cur = got
			continue
		}

		writeStart := env.Now()
		for _, m := range members {
			if err := w.Client.PutSynthetic(bucket, opts.fileName(round, group, w.ID, m), per); err != nil {
				return 0, trace, err
			}
		}
		rt.Write = env.Now() - writeStart
		var got int64
		for _, m := range members {
			name := opts.fileName(round, group, m, w.ID)
			waitStart := env.Now()
			n, err := w.Client.WaitFor(bucket, name, opts.Poll, opts.MaxWait)
			if err != nil {
				return 0, trace, err
			}
			rt.Wait += env.Now() - waitStart
			readStart := env.Now()
			if _, _, err := w.Client.GetRange(bucket, name, 0, n, 1); err != nil {
				return 0, trace, err
			}
			rt.Read += env.Now() - readStart
			got += n
		}
		trace.Rounds = append(trace.Rounds, rt)
		cur = got
	}
	trace.Total = env.Now() - begin
	return cur, trace, nil
}

func indexOf(list []int, v int) int {
	for i, x := range list {
		if x == v {
			return i
		}
	}
	return -1
}
