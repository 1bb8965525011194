package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Stage boundaries are the asymmetric counterpart of the symmetric
// all-to-all exchange of Run: a producing stage of S workers hash-partitions
// its output rows into P partitions through S3, and a consuming stage of P
// workers each collects exactly one partition from every sender. Unlike the
// multi-level grid (which requires senders == receivers), a boundary is a
// single round when Variant.Levels == 1 (multilevel.go adds the §4.4.2
// regrouping round for Levels >= 2: senders write √-grouped objects, a
// regroup fleet merges per group, receivers touch one group object instead
// of S sender objects); bucket sharding (by partition in the basic variant,
// by sender when write-combining) keeps the §4.4.1 rate-limit multiplication,
// and the write-combining variant keeps the §4.4.3 trick of encoding
// cumulative partition offsets in the file name so each receiver
// range-reads its slice of one combined object per sender.
//
// Every sender writes a file (possibly empty) for every partition, so
// receivers never need a membership protocol: partition p is complete once
// all S sender files exist.
//
// Boundary names are versioned by attempt so straggler speculation can
// re-run a sender without racing the original's files: attempt a of sender
// s writes into its own `a<attempt>` namespace and then commits it — with a
// per-(stage,attempt,sender) commit marker in the basic variant, or
// implicitly by the single atomic Put of the combined object when
// write-combining. Receivers take, per sender, the first complete
// (committed) attempt set; uncommitted and later attempts are ignored.
// Because stage fragments are deterministic, every attempt's files are
// byte-identical, so which attempt wins never changes the collected rows.
// Loser attempts linger as garbage until Sweep (the stale-drain collector)
// removes the boundary namespace.

// Boundary identifies one producing stage's partitioned output inside an
// exchange namespace (Options.Prefix scopes the query).
type Boundary struct {
	// Stage is the producing stage's ID (namespaces the object keys).
	Stage int
	// Attempt versions the publishing sender's file set: backup attempts of
	// a straggling sender write under a fresh attempt namespace instead of
	// racing the original's files. Collectors ignore it — they discover the
	// first committed attempt per sender themselves.
	Attempt int
	// Senders is the producing stage's worker count.
	Senders int
	// Partitions is the consuming stage's worker count.
	Partitions int
}

func (o *Options) stageBucket(stage, part int) string {
	return o.Buckets[(stage*31+part)%len(o.Buckets)]
}

// stageFile names sender's file of one partition within one attempt.
func (o *Options) stageFile(stage, attempt, part, sender int) string {
	return fmt.Sprintf("%s/s%d/p%d/a%d-snd%d", o.Prefix, stage, part, attempt, sender)
}

// stageCommit names the commit marker sealing (stage, sender, attempt) in
// the basic variant: it is written after every partition file of the
// attempt, so receivers that see it can read any partition without waiting.
func (o *Options) stageCommit(stage, sender, attempt int) string {
	return fmt.Sprintf("%s/s%d/commit/snd%d-a%d", o.Prefix, stage, sender, attempt)
}

// stageCommitDir is the stage's whole commit namespace: one List under it
// returns the markers of every sender sharded into that bucket, so a
// receiver discovers all its senders' commits with one request per shard
// bucket per round instead of one List per (sender, poll).
func (o *Options) stageCommitDir(stage int) string {
	return fmt.Sprintf("%s/s%d/commit/", o.Prefix, stage)
}

// parseStageCommitName extracts sender and attempt from a commit marker key
// (`…/commit/snd<s>-a<n>`).
func parseStageCommitName(key string) (sender, attempt int, err error) {
	base := key[strings.LastIndex(key, "/")+1:]
	if !strings.HasPrefix(base, "snd") {
		return 0, 0, fmt.Errorf("exchange: bad commit marker %q", key)
	}
	rest := base[3:]
	ai := strings.Index(rest, "-a")
	if ai < 0 {
		return 0, 0, fmt.Errorf("exchange: bad commit marker %q", key)
	}
	if sender, err = strconv.Atoi(rest[:ai]); err != nil {
		return 0, 0, fmt.Errorf("exchange: bad commit marker %q", key)
	}
	if attempt, err = strconv.Atoi(rest[ai+2:]); err != nil {
		return 0, 0, fmt.Errorf("exchange: bad commit marker %q", key)
	}
	return sender, attempt, nil
}

func (o *Options) stageWcPrefix(stage int) string {
	return fmt.Sprintf("%s/s%d/snd", o.Prefix, stage)
}

// stageWcName encodes sender, attempt and the cumulative partition offsets
// in the combined object's name (§4.4.3). The single Put is atomic, so the
// object doubles as its own commit marker.
func (o *Options) stageWcName(stage, attempt, sender int, offsets []int64) string {
	return wcObjectName(o.stageWcPrefix(stage), sender, attempt, offsets)
}

// wcObjectName renders `<prefix><id>-a<attempt>-off<o0_o1_…>`, the name of a
// write-combined boundary object.
func wcObjectName(prefix string, id, attempt int, offsets []int64) string {
	return string(appendOffsets(fmt.Appendf(nil, "%s%d-a%d-off", prefix, id, attempt), offsets))
}

// appendOffsets appends the offsets in decimal, joined by underscores.
func appendOffsets(b []byte, offsets []int64) []byte {
	for i, off := range offsets {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, off, 10)
	}
	return b
}

// slotRange walks the offset list appendOffsets rendered — no allocation: a
// receiver reads one such name per sender — and returns slot's byte range
// [o[slot], o[slot+1]). The list must hold slots+1 ascending offsets.
func slotRange(list string, slots, slot int) (lo, hi int64, err error) {
	n := 0
	for more := true; more; n++ {
		var field string
		field, list, more = strings.Cut(list, "_")
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		switch n {
		case slot:
			lo = v
		case slot + 1:
			hi = v
		}
	}
	if n != slots+1 {
		return 0, 0, fmt.Errorf("%d offsets for %d slots", n, slots)
	}
	if hi < lo {
		return 0, 0, errors.New("inverted offsets")
	}
	return lo, hi, nil
}

// parseWcTail parses a `<tag><id>-a<n>-off<o0_o1_…>` combined-object base
// name — the shared shape of single-round (`snd`), round-1 grouped
// (`r1snd`) and regroup (`rg`) write-combined objects — into the writer's
// id, its attempt and slot's byte range of the object's slots.
func parseWcTail(key, tag string, slots, slot int) (id, attempt int, lo, hi int64, err error) {
	bad := func(err error) (int, int, int64, int64, error) {
		return 0, 0, 0, 0, fmt.Errorf("exchange: bad stage wc file name %q: %w", key, err)
	}
	base := key[strings.LastIndex(key, "/")+1:]
	rest, ok := strings.CutPrefix(base, tag)
	ai := strings.Index(rest, "-a")
	oi := strings.Index(rest, "-off")
	if !ok || ai < 0 || oi < ai {
		return bad(errors.New("want <tag><id>-a<n>-off<offsets>"))
	}
	if id, err = strconv.Atoi(rest[:ai]); err != nil {
		return bad(err)
	}
	if attempt, err = strconv.Atoi(rest[ai+2 : oi]); err != nil {
		return bad(err)
	}
	if lo, hi, err = slotRange(rest[oi+4:], slots, slot); err != nil {
		return bad(err)
	}
	return id, attempt, lo, hi, nil
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

// PublishStage hash-partitions chunk by the key columns and writes this
// sender's partition files into the boundary's attempt namespace — one
// object per partition plus a commit marker, or one combined object with
// sender/attempt/offsets in the name when the variant write-combines. Rows
// keep their order within each partition, so the boundary is deterministic
// for a deterministic input chunk, and re-publishing the same chunk under a
// new attempt produces byte-identical files.
func PublishStage(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string) error {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return errors.New("exchange: no buckets configured")
	}
	if b.Partitions < 1 {
		return fmt.Errorf("exchange: boundary with %d partitions", b.Partitions)
	}
	slot, err := hashSlots(chunk, keys, b.Partitions)
	if err != nil {
		return err
	}
	scattered, bounds := scatter(chunk, slot, b.Partitions)
	if opts.Variant.Levels >= 2 {
		return publishStageGrouped(client, opts, b, sender, scattered, bounds)
	}
	combined, offsets, err := encodeSlots(scattered, bounds)
	if err != nil {
		return err
	}

	if opts.Variant.WriteCombining {
		// One combined object, sharded by sender (a sender writes one file,
		// so the per-partition spread of the basic variant is unavailable —
		// spreading senders keeps the §4.4.1 rate-limit multiplication);
		// cumulative partition offsets travel in the name. The single Put is
		// atomic: the object existing means the attempt is committed.
		name := opts.stageWcName(b.Stage, b.Attempt, sender, offsets)
		return client.Put(opts.stageBucket(b.Stage, sender), name, combined)
	}

	for p := 0; p < b.Partitions; p++ {
		if err := client.Put(opts.stageBucket(b.Stage, p), opts.stageFile(b.Stage, b.Attempt, p, sender), combined[offsets[p]:offsets[p+1]]); err != nil {
			return err
		}
	}
	// Commit marker last: a receiver that sees it knows every partition file
	// of this attempt exists (S3 writes are strongly consistent).
	return client.Put(opts.stageBucket(b.Stage, sender), opts.stageCommit(b.Stage, sender, b.Attempt), nil)
}

// CollectStage waits until every sender has committed at least one attempt,
// then returns the concatenation of partition part across senders in
// ascending sender order, reading each sender's first (lowest) committed
// attempt. Later and uncommitted attempts — stragglers that lost a
// speculation race, or partial file sets of an aborted attempt — are
// ignored. The schema comes from the blobs themselves (lpq files are
// self-describing), so boundaries need no schema plumbing.
func CollectStage(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return nil, errors.New("exchange: no buckets configured")
	}
	if b.Senders < 1 {
		return nil, fmt.Errorf("exchange: stage %d has no senders", b.Stage)
	}
	if opts.Variant.Levels >= 2 {
		return collectStageMultiLevel(client, opts, b, part)
	}
	if opts.Variant.WriteCombining {
		return collectStageCombined(client, opts, b, part)
	}
	attempts, err := waitAllCommitted(client, opts, b, opts.stageCommitDir(b.Stage))
	if err != nil {
		return nil, err
	}
	blobs := make([][]byte, b.Senders)
	bucket := opts.stageBucket(b.Stage, part)
	for s := range blobs {
		name := opts.stageFile(b.Stage, attempts[s], part, s)
		if blobs[s], _, err = client.Get(bucket, name, 1); err != nil {
			return nil, fmt.Errorf("exchange: reading %s: %w", name, err)
		}
	}
	return decodeBlobs(nil, blobs)
}

// bucketSenders is one shard bucket and the senders sharded into it.
type bucketSenders struct {
	bucket  string
	senders []int
}

// senderBuckets groups a boundary's senders by the shard bucket their
// commit markers (basic) or combined objects (write-combining) land in,
// ordered by lowest sender — a deterministic order matters: DES receivers
// consume modeled List latencies in iteration order, so ranging over a Go
// map here would randomize virtual timelines run to run.
func senderBuckets(opts Options, b Boundary) []bucketSenders {
	idx := map[string]int{}
	var out []bucketSenders
	for s := 0; s < b.Senders; s++ {
		bk := opts.stageBucket(b.Stage, s)
		i, ok := idx[bk]
		if !ok {
			i = len(out)
			idx[bk] = i
			out = append(out, bucketSenders{bucket: bk})
		}
		out[i].senders = append(out[i].senders, s)
	}
	return out
}

// bucketDone reports whether every sender sharded into the bucket has a
// committed attempt recorded already.
func bucketDone(senders []int, committed map[int]int) bool {
	for _, s := range senders {
		if _, ok := committed[s]; !ok {
			return false
		}
	}
	return true
}

// waitAllCommitted waits until every sender of the boundary has committed
// at least one attempt under the given commit namespace and returns, per
// sender, the first committed attempt observed (ties broken toward the
// lowest attempt number) — the rule that makes backup attempts race-free.
// Discovery is batched and incremental: one List of the commit namespace
// per shard bucket per round, only for buckets that still host uncommitted
// senders, with results cached across rounds; between rounds the receiver
// parks on the completion signal s3.Put broadcasts, with the timed poll as
// the fallback. The dir parameter selects the round: the single-round
// commit namespace, or the r1commit namespace of a multi-level boundary.
func waitAllCommitted(client *s3.Client, opts Options, b Boundary, dir string) (map[int]int, error) {
	byBucket := senderBuckets(opts, b)
	committed := make(map[int]int, b.Senders)
	deadline := client.Env().Now() + opts.MaxWait
	for {
		for _, bs := range byBucket {
			if bucketDone(bs.senders, committed) {
				continue
			}
			entries, err := client.List(bs.bucket, dir)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				sender, attempt, err := parseStageCommitName(e.Key)
				if err != nil {
					return nil, err
				}
				if cur, ok := committed[sender]; !ok || attempt < cur {
					committed[sender] = attempt
				}
			}
		}
		if len(committed) >= b.Senders {
			return committed, nil
		}
		if client.Env().Now() >= deadline {
			return nil, fmt.Errorf("exchange: %d/%d senders of stage %d committed after %v",
				len(committed), b.Senders, b.Stage, opts.MaxWait)
		}
		// Park on the stage's commit namespace: only a commit-marker Put of
		// THIS boundary wakes the receiver early (bucket is omitted from
		// completion topics, so one prefix covers all shard buckets).
		simenv.WaitNotifyKey(client.Env(), "s3/"+dir, opts.Poll)
	}
}

// stageWcFile is one committed combined object of a sender: where it is
// and the byte range [lo, hi) of the slot being collected.
type stageWcFile struct {
	bucket  string
	key     string
	attempt int
	lo, hi  int64
}

// discoverCombined lists a boundary's write-combined objects across the
// senders' shard buckets until every sender has committed at least one
// attempt, returning each sender's first observed attempt (lowest wins
// within a round). Discovery is incremental — found senders are cached
// across rounds, a bucket is re-listed only while it still hosts unfound
// senders, and the caller parks on the completion signal between rounds.
// The prefix/tag pair selects the round (single-round `snd` objects with
// slots = partitions, or round-1 `r1snd` grouped objects with slots =
// groups); every object must carry slots+1 cumulative offsets, of which
// slot's range is kept.
func discoverCombined(client *s3.Client, opts Options, b Boundary, prefix, tag string, slots, slot int) (map[int]stageWcFile, error) {
	byBucket := senderBuckets(opts, b)
	deadline := client.Env().Now() + opts.MaxWait
	best := make(map[int]stageWcFile, b.Senders)
	found := make(map[int]int, b.Senders) // attempt per sender, for bucketDone
	for {
		for _, bs := range byBucket {
			if bucketDone(bs.senders, found) {
				continue
			}
			entries, err := client.List(bs.bucket, prefix)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				sender, attempt, lo, hi, err := parseWcTail(e.Key, tag, slots, slot)
				if err != nil {
					return nil, err
				}
				if cur, ok := best[sender]; !ok || attempt < cur.attempt {
					best[sender] = stageWcFile{bucket: bs.bucket, key: e.Key, attempt: attempt, lo: lo, hi: hi}
					found[sender] = attempt
				}
			}
		}
		if len(best) >= b.Senders {
			return best, nil
		}
		if client.Env().Now() >= deadline {
			return nil, fmt.Errorf("exchange: %d/%d senders committed after %v", len(best), b.Senders, opts.MaxWait)
		}
		// Park on the boundary's combined-object namespace: only a sender's
		// atomic Put into this stage's prefix wakes the receiver.
		simenv.WaitNotifyKey(client.Env(), "s3/"+prefix, opts.Poll)
	}
}

// collectStageCombined lists the boundary's combined objects across the
// senders' shard buckets until every sender has committed at least one
// attempt, then range-reads this partition's slice of each sender's first
// observed attempt (lowest wins within a round). Extra objects from losing
// attempts are ignored. Like waitAllCommitted, discovery is incremental:
// found senders are cached across rounds, a bucket is re-listed only while
// it still hosts unfound senders, and the receiver parks on the completion
// signal between rounds.
func collectStageCombined(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	best, err := discoverCombined(client, opts, b, opts.stageWcPrefix(b.Stage), "snd", b.Partitions, part)
	if err != nil {
		return nil, err
	}
	return readSlots(client, best)
}

// readSlots range-reads the collected slot's bytes of every sender's
// combined object and concatenates the rows in ascending sender order.
func readSlots(client *s3.Client, best map[int]stageWcFile) (*columnar.Chunk, error) {
	senders := make([]int, 0, len(best))
	for s := range best {
		senders = append(senders, s)
	}
	sort.Ints(senders)
	blobs := make([][]byte, len(senders))
	for i, s := range senders {
		f := best[s]
		var err error
		if blobs[i], _, err = client.GetRange(f.bucket, f.key, f.lo, f.hi-f.lo, 1); err != nil {
			return nil, err
		}
	}
	return decodeBlobs(nil, blobs)
}

// Sweep is the stale-drain collector: it deletes every object under prefix
// in the given buckets — winner files whose consumers have collected and
// loser files of aborted or outpaced speculative attempts alike — and
// returns how many objects it removed. Deletes are batched per bucket
// through the DeleteObjects API (one round trip per 1000 keys). The driver
// runs it before a query (clearing leftovers of an identically-named
// aborted run, every epoch included) and after (reclaiming the boundary
// namespace).
func Sweep(client *s3.Client, buckets []string, prefix string) (int, error) {
	removed := 0
	for _, b := range buckets {
		entries, err := client.List(b, prefix)
		if err != nil {
			return removed, err
		}
		if len(entries) == 0 {
			continue
		}
		keys := make([]string, len(entries))
		for i, e := range entries {
			keys[i] = e.Key
		}
		if err := client.DeleteBatch(b, keys); err != nil {
			return removed, err
		}
		removed += len(keys)
	}
	return removed, nil
}

// decodeBlobs concatenates the rows of the lpq blobs, in order, into one
// chunk of the given schema — nil takes the first blob's, lpq files being
// self-describing, so boundaries need no schema plumbing. The chunk is sized
// once from the footers' row counts and every page is decoded straight into
// its place.
func decodeBlobs(schema *columnar.Schema, blobs [][]byte) (*columnar.Chunk, error) {
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
	if schema == nil {
		if len(readers) == 0 {
			return nil, nil
		}
		schema = readers[0].Schema()
	}
	out := columnar.NewChunk(schema, int(rows))
	for _, r := range readers {
		if err := r.AppendTo(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
