package exchange

import (
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
	// instead of racing it. Collectors ignore it: a driverless one takes each
	// writer's lowest committed attempt, a staged one the attempt its
	// manifest names.
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
// sealed selects the staged protocol.
func (b Boundary) senders(client *s3.Client, opts Options, sealed bool) round {
	r := round{client: client, opts: opts, stage: b.Stage, writers: b.Senders, slots: b.Partitions, sealed: sealed}
	if opts.Variant.Levels >= 2 {
		r.kind, r.slots = groupRound, Groups(b.Partitions)
	}
	return r
}

// regroup is the second round of a multi-level boundary for one group:
// its single writer is the group's regroup worker, its slots the group's
// partitions.
func (b Boundary) regroup(client *s3.Client, opts Options, group int, sealed bool) round {
	size := GroupSize(b.Partitions)
	lo := group * size
	return round{client: client, opts: opts, stage: b.Stage, kind: regroupRound,
		writer0: group, writers: 1, slot0: lo, slots: min(lo+size, b.Partitions) - lo, sealed: sealed}
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
// whole, with the offsets in the name or, staged, in the seal message; the
// others Put its slices. Every
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
// sender's slots into the boundary's send round under b.Attempt, on the
// driverless protocol. Rows keep their order within a partition, so
// re-publishing the same chunk under a new attempt writes byte-identical
// objects.
func PublishStage(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string) error {
	_, err := publishStage(client, opts, b, sender, chunk, keys, false)
	return err
}

// PublishSealed is PublishStage on the staged protocol. It returns what the
// sender committed — the slots+1 offsets of its write-combined object, none
// for a basic round — for the seal message the driver builds the stage's
// manifest from (AppendCommit).
func PublishSealed(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string) ([]int64, error) {
	return publishStage(client, opts, b, sender, chunk, keys, true)
}

func publishStage(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string, sealed bool) ([]int64, error) {
	opts, err := b.ready(opts)
	if err != nil {
		return nil, err
	}
	slot, err := hashSlots(chunk, keys, b.Partitions)
	if err != nil {
		return nil, err
	}
	scattered, bounds := scatter(chunk, slot, b.Partitions)
	r := b.senders(client, opts, sealed)
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
		return nil, err
	}
	return r.commit(sender, b.Attempt, body, offsets)
}

// commit publishes the writer's body and returns what its seal message
// reports: the offsets, when they are not in the name and the round
// write-combines.
func (r round) commit(writer, attempt int, body []byte, offsets []int64) ([]int64, error) {
	if err := r.publish(writer, attempt, body, offsets); err != nil || !r.sealed || !r.opts.Variant.WriteCombining {
		return nil, err
	}
	return offsets, nil
}

// collect reads slot of the round and decodes the blobs into one chunk of at
// most bound bytes (lpq.ReadFiles), in writer order: located by the manifest
// when the round is sealed, by discovery otherwise.
func (r round) collect(slot int, m manifest, bound int64) (*columnar.Chunk, error) {
	var refs []ref
	var err error
	if r.sealed {
		refs, err = r.sealedRefs(m, slot)
	} else {
		refs, err = r.discover(slot)
	}
	if err != nil {
		return nil, err
	}
	blobs, _, err := read(r.client, refs)
	if err != nil {
		return nil, err
	}
	return lpq.ReadFiles(bound, blobs...)
}

// source is the round partition part is read from — the senders' round of a
// single-round boundary, the round of the partition's group of a multi-level
// one — and how many writers the manifest of that round's stage holds:
// the senders, or one regroup worker per group.
func (b Boundary) source(client *s3.Client, opts Options, part int, sealed bool) (round, int) {
	if opts.Variant.Levels >= 2 {
		return b.regroup(client, opts, GroupOf(part, b.Partitions), sealed), Groups(b.Partitions)
	}
	return b.senders(client, opts, sealed), b.Senders
}

// CollectStage waits until partition part is complete and returns its rows,
// senders ascending, on the driverless protocol: from every sender's lowest
// committed attempt, or, for a multi-level boundary, from the lowest
// committed attempt of the partition's regroup worker — one List and one read
// instead of one read per sender. Its decode is unbounded: the driverless
// runs read only what their own process wrote.
func CollectStage(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	opts, err := b.ready(opts)
	if err != nil {
		return nil, err
	}
	r, _ := b.source(client, opts, part, false)
	return r.collect(part, manifest{}, math.MaxInt64)
}

// Input is one boundary a fragment collects on the staged protocol: the
// boundary, the variant its writers wrote with, and Sealed, the seal manifest
// of the stage the partition is read from — the senders of a single-round
// boundary, the regroup stage of a multi-level one, whose entries are its
// groups.
type Input struct {
	Boundary Boundary
	Variant  Variant
	Sealed   []byte
}

// CollectSealed is CollectStage on the staged protocol, for every input of a
// fragment at once: it takes each input's refs from its manifest — no List,
// no wait: every marker is there before the call — issues all of them through
// one request window, in input order and writer order within an input, and
// returns each input's rows, senders ascending, in input order. A fragment
// that collects two boundaries so pays one round of first-byte latencies, not
// two, and each chunk is byte-identical to a collect of its input alone.
// opts gives the namespace (Buckets, Prefix); each input's own Variant
// replaces opts.Variant. The chunks hold at most bound bytes together.
func CollectSealed(client *s3.Client, opts Options, part int, inputs []Input, bound int64) ([]*columnar.Chunk, error) {
	refs := make([][]ref, len(inputs))
	for i, in := range inputs {
		if in.Sealed == nil {
			return nil, fmt.Errorf("%w: stage %d has no manifest", errManifest, in.Boundary.Stage)
		}
		o := opts
		o.Variant = in.Variant
		o, err := in.Boundary.ready(o)
		if err != nil {
			return nil, err
		}
		r, writers := in.Boundary.source(client, o, part, true)
		if refs[i], err = r.sealedRefs(manifest{in.Sealed, writers}, part); err != nil {
			return nil, err
		}
	}
	blobs, _, err := read(client, refs...)
	if err != nil {
		return nil, err
	}
	out := make([]*columnar.Chunk, len(inputs))
	for i := range out {
		n := len(refs[i])
		if out[i], err = lpq.ReadFiles(bound, blobs[:n]...); err != nil {
			return nil, err
		}
		bound -= out[i].ByteSize()
		blobs = blobs[n:]
	}
	return out, nil
}

// RegroupStage runs the intermediate round of a multi-level boundary for one
// group on the driverless protocol: collect the group from every sender,
// split the merged rows by the boundary's hash again, and publish the group's
// partitions under this regroup attempt (b.Attempt — regroup workers are
// speculated and retried like any fragment). The merge is sender-ascending
// and the split keeps row order, so receivers collect exactly the rows, in
// the order, a single-round boundary would have given them. Its decode is
// unbounded: the driverless runs read only what their own process wrote.
func RegroupStage(client *s3.Client, opts Options, b Boundary, group int, keys []string) error {
	_, err := regroupStage(client, opts, b, group, keys, nil, math.MaxInt64)
	return err
}

// RegroupSealed is RegroupStage on the staged protocol: sealed is the seal
// manifest of the sender stage, and the commit returned is the regroup
// worker's own, as PublishSealed returns a sender's. The group it merges
// holds at most bound bytes.
func RegroupSealed(client *s3.Client, opts Options, b Boundary, group int, keys []string, sealed []byte, bound int64) ([]int64, error) {
	if sealed == nil {
		return nil, fmt.Errorf("%w: stage %d has no manifest", errManifest, b.Stage)
	}
	return regroupStage(client, opts, b, group, keys, sealed, bound)
}

func regroupStage(client *s3.Client, opts Options, b Boundary, group int, keys []string, sealed []byte, bound int64) ([]int64, error) {
	opts, err := b.ready(opts)
	if err != nil {
		return nil, err
	}
	if groups := Groups(b.Partitions); group < 0 || group >= groups {
		return nil, fmt.Errorf("exchange: regroup group %d of %d", group, groups)
	}
	merged, err := b.senders(client, opts, sealed != nil).collect(group, manifest{sealed, b.Senders}, bound)
	if err != nil {
		return nil, err
	}
	slot, err := hashSlots(merged, keys, b.Partitions)
	if err != nil {
		return nil, err
	}
	scattered, bounds := scatter(merged, slot, b.Partitions)
	r := b.regroup(client, opts, group, sealed != nil)
	lo, hi := r.slot0, r.slot0+r.slots
	if rows := bounds[lo] + bounds[b.Partitions] - bounds[hi]; rows > 0 {
		return nil, fmt.Errorf("%w: stage %d group %d holds %d rows hashed to other groups' partitions", errShape, b.Stage, group, rows)
	}
	body, offsets, err := encodeSlots(scattered, bounds[lo:hi+1])
	if err != nil {
		return nil, err
	}
	return r.commit(group, b.Attempt, body, offsets)
}

// Object names one object of an exchange namespace.
type Object struct{ Bucket, Key string }

// Written appends to dst the bucket and key of every object one writer's
// attempt b.Attempt publishes on the staged protocol — its write-combined
// object, or its slot files: as sender writer of b (PublishSealed) or, with
// regroup set, as the regroup worker of group writer (RegroupSealed). The
// names come from the enumeration publish Puts, in the variant's narrowed
// shard pool (opts.Buckets is the full pool, narrowed here as the writer
// narrowed it), so a driver that knows every attempt it invoked deletes what
// a query wrote by key (Delete), without listing a bucket.
func Written(dst []Object, opts Options, b Boundary, writer int, regroup bool) ([]Object, error) {
	opts, err := b.ready(opts)
	if err != nil {
		return dst, err
	}
	r, writers := b.senders(nil, opts, true), b.Senders
	if regroup {
		r, writers = b.regroup(nil, opts, writer, true), Groups(b.Partitions)
	}
	if writer < 0 || writer >= writers {
		return dst, fmt.Errorf("%w: writer %d of stage %d, which has %d", errShape, writer, b.Stage, writers)
	}
	for _, o := range r.objects(writer, b.Attempt, nil) {
		dst = append(dst, Object{o.bucket, o.key.String()})
	}
	return dst, nil
}

// Delete removes objects by key: one DeleteObjects batch per bucket (one
// round trip per 1000 keys), the buckets side by side through the client's
// request window, in the order they first appear in objs. A key that names
// nothing is no error — an attempt that died mid-publish wrote fewer objects
// than Written names — and nothing is listed.
func Delete(client *s3.Client, objs []Object) error {
	var buckets []string
	keys := map[string][]string{}
	for _, o := range objs {
		if _, ok := keys[o.Bucket]; !ok {
			buckets = append(buckets, o.Bucket)
		}
		keys[o.Bucket] = append(keys[o.Bucket], o.Key)
	}
	return client.Overlap(len(buckets), func(i int, lane *s3.Client) error {
		return lane.DeleteBatch(buckets[i], keys[buckets[i]])
	})
}

// Sweep is the stale-drain collector for what no live driver can name: it
// lists and deletes every object under prefix in the given buckets, and
// returns how many objects it removed. Deletes are batched per bucket
// through the DeleteObjects API (one round trip per 1000 keys), and the
// buckets are swept side by side through the client's request window. The
// driver deletes what its own query wrote by key (Written, Delete); it
// sweeps the query's whole prefix, every epoch and the full bucket pool,
// only where an earlier run of the same query ID may have left debris — after
// a query at epoch > 1, and before the epoch GC drops an expired fence.
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
