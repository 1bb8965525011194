package exchange

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
)

// Multi-level stage boundaries (§4.4.2, adapted to the asymmetric S→P
// shape). A single-round boundary costs O(S·P) requests — every receiver
// touches every sender. With Variant.Levels >= 2 the boundary routes
// through one intermediate regrouping round over G = Groups(P) ≈ √P
// contiguous partition groups:
//
//	round 1   each sender hash-partitions its rows into P as usual but
//	          writes one object per GROUP (the concatenation of the
//	          group's partitions in ascending partition order, row order
//	          preserved) — combined into a single object with G+1
//	          cumulative offsets in the name when write-combining, or G
//	          objects plus an r1commit marker otherwise
//	regroup   worker g (of G) collects group g from every sender's first
//	          committed attempt in ascending sender order, re-partitions
//	          the merged rows by the same hash, and publishes one object
//	          per partition of its group — again combined-with-offsets
//	          (the atomic Put is the commit) or per-partition files plus
//	          an rgcommit marker, versioned by the regroup worker's own
//	          attempt
//	round 2   receiver p touches only group g = GroupOf(p): one List to
//	          discover the group's first committed regroup attempt and
//	          one (range-)read of its slice
//
// Requests drop from S·P reads to G·S + P (see Variant.Requests). Because
// the regroup merge is ascending-sender with row order preserved and
// re-hashing splits the merged rows back without reordering, the rows
// receiver p collects are exactly the single-round rows — byte-identical
// chunks, whichever variant runs. Attempt versioning composes: round-1
// attempts are the senders' (first committed attempt wins, as always), the
// regroup round carries the regroup worker's own attempt namespace, so
// regroup workers can crash, retry and be speculated like any stage
// fragment. Boundaries flatten Levels > 2 to one regroup round: with one
// intermediate round already at √P grouping, further rounds only pay off
// past fleet sizes the simulation targets.

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

// groupSpan returns the partition range [lo, hi) of one group.
func groupSpan(group, parts int) (lo, hi int) {
	size := GroupSize(parts)
	lo = group * size
	hi = min(lo+size, parts)
	return lo, hi
}

// stageR1WcPrefix is the round-1 namespace of write-combined grouped
// objects: `<prefix>/s<stage>/r1snd<s>-a<n>-off<o0_…_oG>`.
func (o *Options) stageR1WcPrefix(stage int) string {
	return fmt.Sprintf("%s/s%d/r1snd", o.Prefix, stage)
}

func (o *Options) stageR1WcName(stage, attempt, sender int, offsets []int64) string {
	return wcObjectName(o.stageR1WcPrefix(stage), sender, attempt, offsets)
}

// stageGroupFile names the round-1 basic-variant object of (group, sender,
// attempt), sharded by group.
func (o *Options) stageGroupFile(stage, attempt, group, sender int) string {
	return fmt.Sprintf("%s/s%d/g%d/a%d-snd%d", o.Prefix, stage, group, attempt, sender)
}

// stageR1Commit seals a sender's round-1 attempt in the basic variant,
// written after all of its group objects.
func (o *Options) stageR1Commit(stage, sender, attempt int) string {
	return fmt.Sprintf("%s/s%d/r1commit/snd%d-a%d", o.Prefix, stage, sender, attempt)
}

func (o *Options) stageR1CommitDir(stage int) string {
	return fmt.Sprintf("%s/s%d/r1commit/", o.Prefix, stage)
}

// stageRgPrefix is the regroup round's write-combined namespace for one
// group: `<prefix>/s<stage>/rg<g>-a<n>-off<o0_…_om>`. The trailing dash
// keeps group 1 from matching group 12's objects.
func (o *Options) stageRgPrefix(stage, group int) string {
	return fmt.Sprintf("%s/s%d/rg%d-", o.Prefix, stage, group)
}

func (o *Options) stageRgName(stage, group, attempt int, offsets []int64) string {
	return string(appendOffsets(fmt.Appendf(nil, "%sa%d-off", o.stageRgPrefix(stage, group), attempt), offsets))
}

// stageRgFile names the regroup round's basic-variant object of one
// partition, sharded by partition like single-round files (the `rg<g>` tag
// keeps it disjoint from `snd<s>` names).
func (o *Options) stageRgFile(stage, attempt, part, group int) string {
	return fmt.Sprintf("%s/s%d/p%d/a%d-rg%d", o.Prefix, stage, part, attempt, group)
}

// stageRgCommit seals a regroup worker's attempt in the basic variant.
func (o *Options) stageRgCommit(stage, group, attempt int) string {
	return fmt.Sprintf("%s/s%d/rgcommit/g%d-a%d", o.Prefix, stage, group, attempt)
}

// stageRgCommitPrefix covers one group's regroup commit markers; the
// embedded `-a` keeps group 1 from matching group 12.
func (o *Options) stageRgCommitPrefix(stage, group int) string {
	return fmt.Sprintf("%s/s%d/rgcommit/g%d-a", o.Prefix, stage, group)
}

// publishStageGrouped writes round 1 of a multi-level boundary: the
// sender's rows, already scattered by partition (bounds are the partitions'
// row bounds), go out as one object per group — the group's partitions in
// ascending order, row order preserved, which is one contiguous run of the
// scattered chunk. PublishStage routes here when the variant is multi-level.
func publishStageGrouped(client *s3.Client, opts Options, b Boundary, sender int, scattered *columnar.Chunk, bounds []int) error {
	groups := Groups(b.Partitions)
	groupBounds := make([]int, groups+1)
	for g := range groupBounds {
		groupBounds[g] = bounds[min(g*GroupSize(b.Partitions), b.Partitions)]
	}
	combined, offsets, err := encodeSlots(scattered, groupBounds)
	if err != nil {
		return err
	}

	if opts.Variant.WriteCombining {
		// One combined object per sender with cumulative group offsets in
		// the name; the single atomic Put commits the attempt.
		name := opts.stageR1WcName(b.Stage, b.Attempt, sender, offsets)
		return client.Put(opts.stageBucket(b.Stage, sender), name, combined)
	}

	for g := 0; g < groups; g++ {
		if err := client.Put(opts.stageBucket(b.Stage, g), opts.stageGroupFile(b.Stage, b.Attempt, g, sender), combined[offsets[g]:offsets[g+1]]); err != nil {
			return err
		}
	}
	// Commit marker last: every group object of this attempt exists.
	return client.Put(opts.stageBucket(b.Stage, sender), opts.stageR1Commit(b.Stage, sender, b.Attempt), nil)
}

// collectGroup merges group `group` across all senders in ascending sender
// order, each sender's first committed round-1 attempt winning — the
// regroup worker's input.
func collectGroup(client *s3.Client, opts Options, b Boundary, group int) (*columnar.Chunk, error) {
	if opts.Variant.WriteCombining {
		best, err := discoverCombined(client, opts, b, opts.stageR1WcPrefix(b.Stage), "r1snd", Groups(b.Partitions), group)
		if err != nil {
			return nil, err
		}
		return readSlots(client, best)
	}
	attempts, err := waitAllCommitted(client, opts, b, opts.stageR1CommitDir(b.Stage))
	if err != nil {
		return nil, err
	}
	blobs := make([][]byte, b.Senders)
	bucket := opts.stageBucket(b.Stage, group)
	for s := range blobs {
		name := opts.stageGroupFile(b.Stage, attempts[s], group, s)
		if blobs[s], _, err = client.Get(bucket, name, 1); err != nil {
			return nil, fmt.Errorf("exchange: reading %s: %w", name, err)
		}
	}
	return decodeBlobs(nil, blobs)
}

// RegroupStage runs the intermediate round of a multi-level boundary for
// one group: collect the group across all senders, re-partition the merged
// rows by the boundary's hash, and publish one object per partition of the
// group under this regroup attempt (b.Attempt — regroup workers are
// speculated and retried like any fragment; receivers take the group's
// first committed regroup attempt). Deterministic inputs make every
// attempt's objects byte-identical.
func RegroupStage(client *s3.Client, opts Options, b Boundary, group int, keys []string) error {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return errors.New("exchange: no buckets configured")
	}
	if b.Senders < 1 {
		return fmt.Errorf("exchange: stage %d has no senders", b.Stage)
	}
	if groups := Groups(b.Partitions); group < 0 || group >= groups {
		return fmt.Errorf("exchange: regroup group %d of %d", group, groups)
	}
	merged, err := collectGroup(client, opts, b, group)
	if err != nil {
		return err
	}
	slot, err := hashSlots(merged, keys, b.Partitions)
	if err != nil {
		return err
	}
	scattered, bounds := scatter(merged, slot, b.Partitions)
	lo, hi := groupSpan(group, b.Partitions)
	for p := 0; p < b.Partitions; p++ {
		if rows := bounds[p+1] - bounds[p]; (p < lo || p >= hi) && rows > 0 {
			return fmt.Errorf("exchange: stage %d group %d holds %d rows hashed to partition %d (boundary shape mismatch)",
				b.Stage, group, rows, p)
		}
	}
	combined, offsets, err := encodeSlots(scattered, bounds[lo:hi+1])
	if err != nil {
		return err
	}

	if opts.Variant.WriteCombining {
		name := opts.stageRgName(b.Stage, group, b.Attempt, offsets)
		return client.Put(opts.stageBucket(b.Stage, group), name, combined)
	}

	for p := lo; p < hi; p++ {
		if err := client.Put(opts.stageBucket(b.Stage, p), opts.stageRgFile(b.Stage, b.Attempt, p, group), combined[offsets[p-lo]:offsets[p-lo+1]]); err != nil {
			return err
		}
	}
	return client.Put(opts.stageBucket(b.Stage, group), opts.stageRgCommit(b.Stage, group, b.Attempt), nil)
}

// collectStageMultiLevel is the receiver side of a multi-level boundary:
// one List to discover the group's first committed regroup attempt, one
// (range-)read of this partition's slice. CollectStage routes here when
// the variant is multi-level.
func collectStageMultiLevel(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	group := GroupOf(part, b.Partitions)
	lo, hi := groupSpan(group, b.Partitions)
	slot := part - lo
	bucket := opts.stageBucket(b.Stage, group)
	deadline := client.Env().Now() + opts.MaxWait

	if opts.Variant.WriteCombining {
		prefix := opts.stageRgPrefix(b.Stage, group)
		var won stageWcFile
		for found := false; !found; {
			entries, err := client.List(bucket, prefix)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				// The base name is `rg<g>-a<n>-off<…>`; the id parses back
				// to this group by construction of the listed prefix.
				_, attempt, flo, fhi, err := parseWcTail(e.Key, "rg", hi-lo, slot)
				if err != nil {
					return nil, err
				}
				if !found || attempt < won.attempt {
					won = stageWcFile{bucket: bucket, key: e.Key, attempt: attempt, lo: flo, hi: fhi}
					found = true
				}
			}
			if found {
				break
			}
			if client.Env().Now() >= deadline {
				return nil, fmt.Errorf("exchange: no regroup attempt for stage %d group %d after %v", b.Stage, group, opts.MaxWait)
			}
			simenv.WaitNotifyKey(client.Env(), "s3/"+prefix, opts.Poll)
		}
		data, _, err := client.GetRange(won.bucket, won.key, won.lo, won.hi-won.lo, 1)
		if err != nil {
			return nil, err
		}
		return decodeBlobs(nil, [][]byte{data})
	}

	prefix := opts.stageRgCommitPrefix(b.Stage, group)
	attempt := -1
	for attempt < 0 {
		entries, err := client.List(bucket, prefix)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			a, err := strconv.Atoi(e.Key[strings.LastIndex(e.Key, "-a")+2:])
			if err != nil {
				return nil, fmt.Errorf("exchange: bad regroup commit marker %q", e.Key)
			}
			if attempt < 0 || a < attempt {
				attempt = a
			}
		}
		if attempt >= 0 {
			break
		}
		if client.Env().Now() >= deadline {
			return nil, fmt.Errorf("exchange: no regroup attempt for stage %d group %d after %v", b.Stage, group, opts.MaxWait)
		}
		simenv.WaitNotifyKey(client.Env(), "s3/"+prefix, opts.Poll)
	}
	name := opts.stageRgFile(b.Stage, attempt, part, group)
	data, _, err := client.Get(opts.stageBucket(b.Stage, part), name, 1)
	if err != nil {
		return nil, fmt.Errorf("exchange: reading %s: %w", name, err)
	}
	return decodeBlobs(nil, [][]byte{data})
}
