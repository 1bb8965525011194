package exchange

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Boundary identifies one producing stage's partitioned output inside an
// exchange namespace (Options.Prefix scopes the query): Senders workers
// hash-partition their rows into Partitions, one per consuming worker.
type Boundary struct {
	// Stage is the producing stage's ID (namespaces the object keys).
	Stage int
	// Attempt versions the publishing worker's objects: a backup attempt of
	// a straggling sender or regroup worker writes beside the original's
	// instead of racing it. Collectors ignore it — they take each writer's
	// lowest committed attempt themselves.
	Attempt int
	// Senders is the producing stage's worker count.
	Senders int
	// Partitions is the consuming stage's worker count.
	Partitions int
}

// GroupSize returns the number of consecutive partitions per group of a
// multi-level boundary with the given partition count: ceil(P / ceil(√P)).
func GroupSize(parts int) int {
	if parts < 1 {
		return 1
	}
	g0 := int(math.Ceil(math.Sqrt(float64(parts))))
	return (parts + g0 - 1) / g0
}

// Groups returns the regroup-round fleet size of a multi-level boundary
// with the given partition count — about √P groups of GroupSize
// consecutive partitions each.
func Groups(parts int) int {
	size := GroupSize(parts)
	if parts < 1 {
		return 1
	}
	return (parts + size - 1) / size
}

// GroupOf returns the group that owns the partition.
func GroupOf(part, parts int) int {
	return part / GroupSize(parts)
}

// senders is the round the boundary's senders publish into: straight into
// the partitions, or with Levels >= 2 into the groups — a group being a run
// of consecutive partitions, a sender's group object is a run of its
// partition-scattered rows. Levels > 2 flatten to the one regroup round: past
// √P grouping, further rounds only pay off beyond the fleet sizes simulated.
func (b Boundary) senders(client *s3.Client, opts Options) round {
	r := round{client: client, opts: opts, stage: b.Stage, writers: b.Senders, slots: b.Partitions}
	if opts.Variant.Levels >= 2 {
		r.kind, r.slots = groupRound, Groups(b.Partitions)
	}
	return r
}

// regroup is the second round of a multi-level boundary for one group:
// its single writer is the group's regroup worker, its slots the group's
// partitions.
func (b Boundary) regroup(client *s3.Client, opts Options, group int) round {
	size := GroupSize(b.Partitions)
	lo := group * size
	return round{client: client, opts: opts, stage: b.Stage, kind: regroupRound,
		writer0: group, writers: 1, slot0: lo, slots: min(lo+size, b.Partitions) - lo}
}

// ready validates the boundary and the options every entry point shares.
func (b Boundary) ready(opts Options) (Options, error) {
	if b.Senders < 1 || b.Partitions < 1 {
		return opts, fmt.Errorf("exchange: stage %d boundary of %d senders and %d partitions", b.Stage, b.Senders, b.Partitions)
	}
	return opts.ready()
}

// HashPartition maps row i of the key columns to its partition in
// [0, parts): the per-column splitmix64 hashes are FNV-combined so composite
// keys distribute independently of any single column.
func HashPartition(keys []*columnar.Vector, i, parts int) int {
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h = (h ^ Hash64(k.Int64s[i])) * 1099511628211
	}
	return int(h % uint64(parts))
}

// hashSlots returns every row's partition in [0, parts) under the boundary
// hash. All key columns must be Int64.
func hashSlots(chunk *columnar.Chunk, keys []string, parts int) ([]int, error) {
	cols := make([]*columnar.Vector, len(keys))
	for i, k := range keys {
		v := chunk.Column(k)
		if v == nil {
			return nil, fmt.Errorf("exchange: partition key %q missing", k)
		}
		if v.Type != columnar.Int64 {
			return nil, fmt.Errorf("exchange: partition key %q has type %v (only BIGINT keys are hashable)", k, v.Type)
		}
		cols[i] = v
	}
	slot := make([]int, chunk.NumRows())
	for i := range slot {
		slot[i] = HashPartition(cols, i, parts)
	}
	return slot, nil
}

// scatter partitions chunk in a single pass: given every row's slot in
// [0, slots), it returns a copy of chunk with the rows of each slot
// contiguous — slots ascending, row order kept within a slot — and the
// slots+1 row bounds, slot s being rows [bounds[s], bounds[s+1]). A slot, and
// any run of consecutive slots (a §4.4.2 group), is then a Slice view of the
// one scattered chunk. Histogram, prefix sums, one permuted copy per column;
// slot is overwritten with each row's destination.
func scatter(chunk *columnar.Chunk, slot []int, slots int) (*columnar.Chunk, []int) {
	bounds := make([]int, slots+1)
	for _, s := range slot {
		bounds[s+1]++
	}
	for s := 0; s < slots; s++ {
		bounds[s+1] += bounds[s]
	}
	next := slices.Clone(bounds[:slots])
	for i, s := range slot {
		slot[i] = next[s]
		next[s]++
	}
	return chunk.Scatter(slot), bounds
}

// encodeSlots serializes rows [bounds[i], bounds[i+1]) of chunk as the lpq
// file of slot i, one file after another in a single buffer, and returns the
// buffer with the len(bounds) cumulative byte offsets of the files: slot i is
// combined[offsets[i]:offsets[i+1]]. Write-combining senders Put the buffer
// whole, with the offsets in the name; the others Put its slices. Every
// slot's rows are encoded in place from a Slice view (lpq.AppendFile).
func encodeSlots(chunk *columnar.Chunk, bounds []int) (combined []byte, offsets []int64, err error) {
	slots := len(bounds) - 1
	// Capacity hint: plain-encoded values plus a footer per slot.
	combined = make([]byte, 0, int(chunk.ByteSize())+slots*(64+64*chunk.Schema.Len()))
	offsets = make([]int64, len(bounds))
	for i := 0; i < slots; i++ {
		combined, err = lpq.AppendFile(combined, chunk.Schema, lpq.WriterOptions{}, chunk.Slice(bounds[i], bounds[i+1]))
		if err != nil {
			return nil, nil, err
		}
		offsets[i+1] = int64(len(combined))
	}
	return combined, offsets, nil
}

// PublishStage hash-partitions chunk by the key columns and publishes the
// sender's slots into the boundary's send round under b.Attempt. Rows keep
// their order within a partition, so re-publishing the same chunk under a new
// attempt writes byte-identical objects.
func PublishStage(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string) error {
	opts, err := b.ready(opts)
	if err != nil {
		return err
	}
	slot, err := hashSlots(chunk, keys, b.Partitions)
	if err != nil {
		return err
	}
	scattered, bounds := scatter(chunk, slot, b.Partitions)
	r := b.senders(client, opts)
	if r.kind == groupRound {
		// Group g is partitions [g·size, (g+1)·size): keep every size-th bound.
		size := GroupSize(b.Partitions)
		for g := 0; g <= r.slots; g++ {
			bounds[g] = bounds[min(g*size, b.Partitions)]
		}
		bounds = bounds[:r.slots+1]
	}
	body, offsets, err := encodeSlots(scattered, bounds)
	if err != nil {
		return err
	}
	return r.publish(sender, b.Attempt, body, offsets)
}

// collect reads slot of the round and decodes the blobs into one chunk, in
// writer order.
func (r round) collect(slot int) (*columnar.Chunk, error) {
	refs, err := r.discover(slot)
	if err != nil {
		return nil, err
	}
	blobs, _, err := r.read(refs)
	if err != nil {
		return nil, err
	}
	return decodeBlobs(blobs)
}

// CollectStage waits until partition part is complete and returns its rows,
// senders ascending: from every sender's lowest committed attempt, or, for a
// multi-level boundary, from the lowest committed attempt of the partition's
// regroup worker — one List and one read instead of one read per sender.
func CollectStage(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	opts, err := b.ready(opts)
	if err != nil {
		return nil, err
	}
	if opts.Variant.Levels >= 2 {
		return b.regroup(client, opts, GroupOf(part, b.Partitions)).collect(part)
	}
	return b.senders(client, opts).collect(part)
}

// RegroupStage runs the intermediate round of a multi-level boundary for one
// group: collect the group from every sender, split the merged rows by the
// boundary's hash again, and publish the group's partitions under this
// regroup attempt (b.Attempt — regroup workers are speculated and retried
// like any fragment). The merge is sender-ascending and the split keeps row
// order, so receivers collect exactly the rows, in the order, a single-round
// boundary would have given them.
func RegroupStage(client *s3.Client, opts Options, b Boundary, group int, keys []string) error {
	opts, err := b.ready(opts)
	if err != nil {
		return err
	}
	if groups := Groups(b.Partitions); group < 0 || group >= groups {
		return fmt.Errorf("exchange: regroup group %d of %d", group, groups)
	}
	merged, err := b.senders(client, opts).collect(group)
	if err != nil {
		return err
	}
	slot, err := hashSlots(merged, keys, b.Partitions)
	if err != nil {
		return err
	}
	scattered, bounds := scatter(merged, slot, b.Partitions)
	r := b.regroup(client, opts, group)
	lo, hi := r.slot0, r.slot0+r.slots
	if rows := bounds[lo] + bounds[b.Partitions] - bounds[hi]; rows > 0 {
		return fmt.Errorf("%w: stage %d group %d holds %d rows hashed to other groups' partitions", errShape, b.Stage, group, rows)
	}
	body, offsets, err := encodeSlots(scattered, bounds[lo:hi+1])
	if err != nil {
		return err
	}
	return r.publish(group, b.Attempt, body, offsets)
}

// Sweep is the stale-drain collector: it deletes every object under prefix
// in the given buckets — winner files whose consumers have collected and
// loser files of aborted or outpaced speculative attempts alike — and
// returns how many objects it removed. Deletes are batched per bucket
// through the DeleteObjects API (one round trip per 1000 keys), and the
// buckets are swept side by side through the client's request window. The
// driver runs it before a query (clearing leftovers of an identically-named
// aborted run, every epoch included) and after (reclaiming the boundary
// namespace).
func Sweep(client *s3.Client, buckets []string, prefix string) (int, error) {
	removed := 0
	err := client.Overlap(len(buckets), func(i int, lane *s3.Client) error {
		entries, err := lane.List(buckets[i], prefix)
		if err != nil || len(entries) == 0 {
			return err
		}
		keys := make([]string, len(entries))
		for j, e := range entries {
			keys[j] = e.Key
		}
		if err := lane.DeleteBatch(buckets[i], keys); err != nil {
			return err
		}
		removed += len(keys)
		return nil
	})
	return removed, err
}

// decodeBlobs concatenates the rows of the lpq blobs, in order, into one
// chunk of the first blob's schema — lpq files are self-describing, so
// boundaries need no schema plumbing. The chunk is sized once from the
// footers' row counts and every page is decoded straight into its place.
func decodeBlobs(blobs [][]byte) (*columnar.Chunk, error) {
	readers := make([]*lpq.Reader, len(blobs))
	var rows int64
	for i, blob := range blobs {
		r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			return nil, err
		}
		readers[i] = r
		rows += r.Meta().TotalRows
	}
	if len(readers) == 0 {
		return nil, nil
	}
	out := columnar.NewChunk(readers[0].Schema(), int(rows))
	for _, r := range readers {
		if err := r.AppendTo(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
