// Package exchange implements Lambada's purely serverless exchange operator
// family (§4.4): workers that cannot accept connections shuffle data through
// S3. The package has one step, the round (round.go), which is the paper's
// basic step (§4.4.1): every writer cuts a body into slots and commits it
// under an attempt number, and the reader of a slot reads its slot of one
// attempt of each writer. Write combining (§4.4.3) is the round's one switch:
// a writer Puts a single object instead of a file per slot. Names come from
// one codec (boundaryKey). A round runs under one of two protocols, which
// differ only in how a reader learns which attempt of a writer to read, and
// where its slot is:
//
//   - Driverless, as the paper built it: the reader "repeats until the files
//     exist" — Lists until every writer has a committed attempt — and takes
//     each writer's lowest one. A write-combined object carries the slots'
//     offsets in its name; a basic writer Puts a commit marker after its last
//     slot file. The grid exchange (Worker.Run) and PublishStage,
//     RegroupStage and CollectStage run it.
//   - Staged (PublishSealed, RegroupSealed, CollectSealed): a driver seals
//     the writing stage once every worker reported through its seal message,
//     and writes the round's manifest — per writer, the attempt the driver
//     sealed (first seal wins) and its offsets — into the ready marker of the
//     stage that reads it (AppendMarker), beside the manifests of that
//     stage's other inputs. Readers take their refs from it and never List;
//     names carry no offsets, and the seal message is a basic writer's
//     commit.
//
// Everything else composes rounds:
//
//   - A single-round stage boundary (Boundary with Levels 1; PublishStage,
//     CollectStage) is one round of S senders and P partitions: S·P requests.
//   - A multi-level stage boundary (§4.4.2, Levels >= 2) is a round of S
//     senders and G = Groups(P) ≈ √P groups of consecutive partitions,
//     followed per group by a one-writer round — the group's regroup worker
//     (RegroupStage) — over the group's partitions. A regroup worker merges
//     its group sender-ascending and splits it by the same hash, so receivers
//     collect the rows of the single-round boundary, byte for byte, for
//     G·S + P reads instead of S·P (Variant.Requests and SealedRequests have
//     the exact counts). Attempts compose: both kinds of writer are retried
//     and speculated like any stage fragment, and a staged regroup worker
//     reads the senders' manifest, its receivers the regroup stage's.
//   - The symmetric P-worker grid exchange of Table 2 (Worker.Run, and
//     RunSyntheticTraced on sizes) is k levels; along each level the workers that
//     agree on every other grid coordinate are a boundary of their own, with
//     as many senders as partitions, in its own namespace and shard bucket.
//     A k-level exchange is the loop bound.
//
// Sharding the objects over buckets (§4.4.1) multiplies S3's per-bucket rate
// limits; the two optimizations bring request cost below worker cost
// (Figure 9, costmodel.go).
//
// A reader keeps its requests in flight, as the paper's worker does: the
// reads of a slot (one small range per writer) — on the staged protocol the
// reads of every boundary a fragment collects, together (CollectSealed) — the
// Lists of a driverless discovery pass (one per shard bucket), a keyed
// delete's DeleteObjects per bucket (Delete) and a sweep's List and
// DeleteObjects per bucket all go through the S3 client's request window
// (s3.Client.Overlap), in the order and with the results of a serial loop and
// a sixteenth of its first-byte latencies. Writers Put one object after
// another: an upload cannot ride a lane of the window.
//
// A reader decodes what it fetched with lpq.ReadFiles, within what is left of
// its task's resident budget on the staged protocol (CollectSealed,
// RegroupSealed); the driverless runs read what their own process wrote.
//
// Cleanup follows the protocol too. A staged writer's names are a function of
// the boundary, the writer and the attempt (Written), so a driver that knows
// every attempt it invoked deletes a query's boundary objects by key and
// lists nothing; Sweep lists a prefix, for the debris of runs no live driver
// can name.
package exchange

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
)

// errKey marks an object name the key codec does not produce; errShape marks
// a well-formed name, or a row, that does not belong to the round it was
// found in — a writer outside the round, another slot count, a misrouted row.
// errManifest marks a ready-marker value that does not split into its inputs'
// manifests, or a manifest that is not one of the round being read:
// truncated, padded, or of another writer or offset count.
var (
	errKey      = errors.New("exchange: bad boundary key")
	errShape    = errors.New("exchange: boundary shape mismatch")
	errManifest = errors.New("exchange: bad seal manifest")
)

// roundKind says which round of a boundary a key belongs to.
type roundKind uint8

const (
	sendRound    roundKind = iota // senders → partitions; every grid level
	groupRound                    // round 1 of a multi-level boundary: senders → groups
	regroupRound                  // regroup worker g → the partitions of group g
)

// keyForm says which of a writer's objects a key names.
type keyForm uint8

const (
	combinedKey keyForm = iota // write-combined body; driverless, its slot offsets in the name (§4.4.3)
	fileKey                    // one slot of one writer
	commitKey                  // driverless: zero-byte marker, written after the writer's last slot file
)

// kindTags holds the parts of a name that differ by round kind.
var kindTags = [...]struct{ combined, slotDir, file, commitDir, commit string }{
	sendRound:    {"snd", "p", "snd", "commit", "snd"},
	groupRound:   {"r1snd", "g", "snd", "r1commit", "snd"},
	regroupRound: {"rg", "p", "rg", "rgcommit", "g"},
}

// boundaryKey is the name of one round object:
//
//	combinedKey  <prefix>/s<stage>/<combined><writer>-a<attempt>-off<offsets>  (driverless)
//	combinedKey  <prefix>/s<stage>/<combined><writer>-a<attempt>                (staged)
//	fileKey      <prefix>/s<stage>/<slotDir><slot>/a<attempt>-<file><writer>
//	commitKey    <prefix>/s<stage>/<commitDir>/<commit><writer>-a<attempt>
//
// parseBoundaryKey is the exact inverse of String.
type boundaryKey struct {
	prefix  string
	stage   int
	kind    roundKind
	form    keyForm
	writer  int
	attempt int
	slot    int    // fileKey only
	offsets string // driverless combinedKey only: slots+1 cumulative byte offsets, as joinOffsets renders them
}

func (k boundaryKey) String() string { return k.render(true) }

// render returns the key or, with whole unset, the List prefix covering every
// attempt of every writer of the round. Regroup rounds share a stage
// namespace, one round per group, so theirs names the writer too; the "-"
// after it keeps group 1 from matching group 12.
func (k boundaryKey) render(whole bool) string {
	t := kindTags[k.kind]
	named := whole || k.kind == regroupRound
	b := make([]byte, 0, len(k.prefix)+len(k.offsets)+48)
	b = fmt.Appendf(b, "%s/s%d/", k.prefix, k.stage)
	switch k.form {
	case combinedKey:
		b = append(b, t.combined...)
		if named {
			b = fmt.Appendf(b, "%d-", k.writer)
		}
		if whole {
			b = fmt.Appendf(b, "a%d", k.attempt)
			if k.offsets != "" {
				b = append(b, "-off"...)
				b = append(b, k.offsets...)
			}
		}
	case fileKey:
		b = fmt.Appendf(b, "%s%d/a%d-%s%d", t.slotDir, k.slot, k.attempt, t.file, k.writer)
	case commitKey:
		b = fmt.Appendf(b, "%s/", t.commitDir)
		if named {
			b = fmt.Appendf(b, "%s%d-a", t.commit, k.writer)
		}
		if whole {
			b = strconv.AppendInt(b, int64(k.attempt), 10)
		}
	}
	return string(b)
}

// tagged parses s as tag followed by an unsigned decimal.
func tagged(s, tag string) (int, bool) {
	s, ok := strings.CutPrefix(s, tag)
	if !ok || s == "" || s[0] < '0' || s[0] > '9' { // Atoi alone would take a sign
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// cutLast splits s around its last sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// parseBoundaryKey reads a key from its end, so a prefix may hold anything,
// and allocates nothing on success: the strings of the result are slices of
// key, and the offsets stay unparsed until slotRange walks them — a receiver
// parses one name per writer and attempt, tens of thousands per query.
func parseBoundaryKey(key string) (boundaryKey, error) {
	dir, base, _ := cutLast(key, "/")
	rest, parent, _ := cutLast(dir, "/")
	for kind, t := range kindTags {
		k := boundaryKey{prefix: rest, kind: roundKind(kind)}
		ok := true
		num := func(s, tag string) int {
			n, isNum := tagged(s, tag)
			ok = ok && isNum
			return n
		}
		stage := parent // a combined object sits right under s<stage>
		if slot, isSlot := tagged(parent, t.slotDir); isSlot {
			k.form, k.slot = fileKey, slot
		} else if parent == t.commitDir {
			k.form = commitKey
		}
		if k.form != combinedKey {
			k.prefix, stage, _ = cutLast(rest, "/")
		}
		k.stage = num(stage, "s")
		switch k.form {
		case combinedKey:
			w, tail, _ := strings.Cut(base, "-a")
			a, offsets, long := strings.Cut(tail, "-off")
			k.writer, k.attempt, k.offsets = num(w, t.combined), num(a, ""), offsets
			ok = ok && (!long || offsets != "")
		case fileKey:
			a, w, _ := strings.Cut(base, "-")
			k.attempt, k.writer = num(a, "a"), num(w, t.file)
		case commitKey:
			w, a, _ := strings.Cut(base, "-a")
			k.writer, k.attempt = num(w, t.commit), num(a, "")
		}
		if ok {
			return k, nil
		}
	}
	return boundaryKey{}, fmt.Errorf("%w %q", errKey, key)
}

// joinOffsets renders ascending byte offsets in decimal, joined by '_'.
func joinOffsets(offsets []int64) string {
	b := make([]byte, 0, 8*len(offsets))
	for i, off := range offsets {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, off, 10)
	}
	return string(b)
}

// slotRange walks the offset list joinOffsets rendered, without allocating,
// and returns slot's byte range [o[slot], o[slot+1]). The list must hold
// slots+1 ascending offsets.
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

// round is the one exchange step (see the package comment). Writers are
// numbered [writer0, writer0+writers) and slots [slot0, slot0+slots). A
// writer's commit — its combined object, or its marker — lives in shard
// bucket bucket(writer), a slot's files in bucket(slot): sharding by writer
// when write-combining and by slot otherwise keeps the §4.4.1 rate-limit
// multiplication either way. Every slot ships, empty or not, so readers need
// no membership protocol.
type round struct {
	client           *s3.Client
	opts             Options // Buckets already narrowed by ready()
	stage            int
	kind             roundKind
	writer0, writers int
	slot0, slots     int
	// sealed runs the round on the staged protocol (see the package comment).
	sealed bool
}

func (r round) bucket(id int) string {
	return r.opts.Buckets[(r.stage*31+id)%len(r.opts.Buckets)]
}

func (r round) key(form keyForm, writer, attempt int) boundaryKey {
	return boundaryKey{prefix: r.opts.Prefix, stage: r.stage, kind: r.kind, form: form, writer: writer, attempt: attempt}
}

// object is one object a writer's attempt publishes into a round: where it
// lives, and the run of the round's slots [from, to) whose bytes it holds —
// none for a commit marker.
type object struct {
	bucket   string
	key      boundaryKey
	from, to int
}

// objects enumerates, in publish order, every object writer's attempt
// publishes into the round: its write-combined object, or one file per slot
// and, driverless, the commit marker after them. It is the one list of a
// writer's names: publish Puts it, and Written hands it to the driver's keyed
// delete. offsets names a driverless write-combined object and is read for
// nothing else.
func (r round) objects(writer, attempt int, offsets []int64) []object {
	if r.opts.Variant.WriteCombining {
		k := r.key(combinedKey, writer, attempt)
		if !r.sealed {
			k.offsets = joinOffsets(offsets)
		}
		return []object{{r.bucket(writer), k, 0, r.slots}}
	}
	objs := make([]object, r.slots, r.slots+1)
	k := r.key(fileKey, writer, attempt)
	for i := range objs {
		k.slot = r.slot0 + i
		objs[i] = object{r.bucket(k.slot), k, i, i + 1}
	}
	if !r.sealed {
		// The marker goes last: a reader that sees it can read any slot of the
		// attempt without waiting (S3 writes are strongly consistent).
		objs = append(objs, object{r.bucket(writer), r.key(commitKey, writer, attempt), 0, 0})
	}
	return objs
}

// publish commits writer's body under attempt: slot slot0+i is
// body[offsets[i]:offsets[i+1]]. A nil body publishes size-only objects of
// the same lengths (the synthetic runs of the DES experiments). Publishing
// the same body under another attempt writes byte-identical objects beside
// the first ones; losers linger until the driver deletes them. A sealed round
// writes no offsets into the name and no commit marker: the writer's seal
// message carries both.
func (r round) publish(writer, attempt int, body []byte, offsets []int64) error {
	if writer < r.writer0 || writer >= r.writer0+r.writers || len(offsets) != r.slots+1 {
		return fmt.Errorf("%w: writer %d publishing %d slots into a round of writers [%d,%d) with %d slots",
			errShape, writer, len(offsets)-1, r.writer0, r.writer0+r.writers, r.slots)
	}
	for _, o := range r.objects(writer, attempt, offsets) {
		lo, hi := offsets[o.from], offsets[o.to]
		var err error
		if body == nil {
			err = r.client.PutSynthetic(o.bucket, o.key.String(), hi-lo)
		} else {
			err = r.client.Put(o.bucket, o.key.String(), body[lo:hi])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ref locates one writer's bytes of the slot being collected: a range of its
// combined object, or (ranged unset) the slot's whole file.
type ref struct {
	bucket, key string
	attempt     int
	lo, hi      int64
	ranged      bool
}

// discover is how a driverless reader locates its slot: it waits until every
// writer of the round has a committed attempt and returns, in ascending
// writer order, where slot's bytes of each writer's lowest committed attempt
// are. Later attempts (a straggler that lost a
// speculation race) and uncommitted ones (the partial file set of an aborted
// attempt) are ignored; fragments being deterministic, which attempt wins
// never changes the bytes. Discovery is one List per shard bucket per pass,
// only of buckets that still host an unseen writer, issued together through
// the client's request window and filed in bucket order; between passes the
// reader parks on the completion topic of the round's commit namespace, which
// only a commit of this round broadcasts on (topics omit the bucket, so one
// covers all shards), with Poll as the fallback. It arms that park before each
// pass's Lists (simenv.Barrier), so a commit that lands while they are in
// flight ends the park at once. A later pass skips the names
// an earlier one vetted before parsing them: a name taken on the first pass is
// parsed once per call, any other at most twice. An object that parses but
// names a writer outside the round, or another slot count, fails the collect:
// counted as a writer it would let the reader return while a real one is
// missing.
func (r round) discover(slot int) ([]ref, error) {
	form := commitKey
	if r.opts.Variant.WriteCombining {
		form = combinedKey
	}
	prefix := r.key(form, r.writer0, 0).render(false)
	if slot < r.slot0 || slot >= r.slot0+r.slots {
		return nil, fmt.Errorf("%w: slot %d collected from %s, slots [%d,%d)", errShape, slot, prefix, r.slot0, r.slot0+r.slots)
	}
	// The shard buckets hosting the round's commits, ordered by lowest writer
	// (DES readers issue their Lists, and draw the modeled latencies, in this
	// order; ranging over the map would randomize virtual timelines), and how
	// many writers of each are not seen yet.
	var shards []string
	unseen := map[string]int{}
	for w := r.writer0; w < r.writer0+r.writers; w++ {
		bucket := r.bucket(w)
		if unseen[bucket]++; unseen[bucket] == 1 {
			shards = append(shards, bucket)
		}
	}
	refs := make([]ref, r.writers) // key == "" until the writer is seen
	seen := 0
	misfit := func(key string, why any) error {
		return fmt.Errorf("%w: %q listed under %s, a round of writers [%d,%d) with %d slots: %v",
			errShape, key, prefix, r.writer0, r.writer0+r.writers, r.slots, why)
	}
	// vetted holds the names parsed on earlier passes. It is allocated only
	// when a second pass is due, so a one-pass discovery — every collect
	// after its producer sealed — allocates nothing for it.
	var vetted map[string]struct{}
	env := r.client.Env()
	deadline := env.Now() + r.opts.MaxWait
	topic := "s3/" + prefix
	for {
		barrier := simenv.Arm(env, topic)
		pending := shards[:0:0]
		for _, shard := range shards {
			if unseen[shard] > 0 {
				pending = append(pending, shard)
			}
		}
		err := r.client.Overlap(len(pending), func(i int, lane *s3.Client) error {
			entries, err := lane.List(pending[i], prefix)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if _, ok := vetted[e.Key]; ok {
					continue
				}
				k, err := parseBoundaryKey(e.Key)
				if err != nil {
					return err
				}
				w := k.writer - r.writer0
				if k.prefix != r.opts.Prefix || k.stage != r.stage || k.kind != r.kind || k.form != form || w < 0 || w >= r.writers {
					return misfit(e.Key, "not an object of this round")
				}
				if vetted != nil {
					vetted[e.Key] = struct{}{}
				}
				found := ref{bucket: pending[i], key: e.Key, attempt: k.attempt, ranged: form == combinedKey}
				if form == combinedKey {
					if found.lo, found.hi, err = slotRange(k.offsets, r.slots, slot-r.slot0); err != nil {
						return misfit(e.Key, err)
					}
				}
				if cur := &refs[w]; cur.key == "" || k.attempt < cur.attempt {
					if cur.key == "" {
						seen++
						unseen[r.bucket(k.writer)]--
					}
					*cur = found
				}
			}
			return nil
		})
		if err == nil && seen < r.writers && env.Now() < deadline {
			if vetted == nil {
				vetted = make(map[string]struct{}, r.writers)
				for _, f := range refs {
					if f.key != "" {
						vetted[f.key] = struct{}{}
					}
				}
			}
			barrier.Wait(r.opts.Poll)
			continue
		}
		barrier.Cancel()
		if err != nil {
			return nil, err
		}
		if seen < r.writers {
			return nil, fmt.Errorf("exchange: %d/%d writers committed under %s after %v", seen, r.writers, prefix, r.opts.MaxWait)
		}
		break
	}
	if form == commitKey {
		for i := range refs {
			refs[i] = r.slotRef(r.writer0+i, refs[i].attempt, slot, 0, 0)
		}
	}
	return refs, nil
}

// slotRef locates slot's bytes of writer's attempt: [lo, hi) of its combined
// object under the staged name, or the slot's file.
func (r round) slotRef(writer, attempt, slot int, lo, hi int64) ref {
	if r.opts.Variant.WriteCombining {
		return ref{bucket: r.bucket(writer), key: r.key(combinedKey, writer, attempt).String(), attempt: attempt, lo: lo, hi: hi, ranged: true}
	}
	k := r.key(fileKey, writer, attempt)
	k.slot = slot
	return ref{bucket: r.bucket(slot), key: k.String(), attempt: attempt}
}

// AppendCommit appends one writer's entry of a seal manifest — the ready
// marker of a stage on the staged protocol — to dst: the attempt the driver
// sealed for the writer and the offsets that attempt committed (none in a
// basic round), as uvarints: the attempt, the offset count, then each
// offset's distance from the one before it (the first's from zero). A driver
// appends one entry per worker of the stage, in worker order.
func AppendCommit(dst []byte, attempt int, offsets []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(attempt))
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	prev := int64(0)
	for _, off := range offsets {
		dst = binary.AppendUvarint(dst, uint64(off-prev))
		prev = off
	}
	return dst
}

// AppendMarker appends one input's seal manifest to a consumer stage's ready
// marker: its length as a uvarint, then its bytes. A driver appends one per
// input of the consumer, in input order; SplitMarker takes them apart.
func AppendMarker(dst, manifest []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(manifest))), manifest...)
}

// SplitMarker splits a consumer stage's ready marker into its n inputs' seal
// manifests, in input order, each a subslice of b. A length that runs past
// the value, bytes after the last manifest, or another count than n fails
// typed (errManifest), before anything is allocated: every entry takes a
// byte of length at least, so n never outgrows what b can back.
func SplitMarker(b []byte, n int) ([][]byte, error) {
	if n < 1 || n > len(b) {
		return nil, fmt.Errorf("%w: %d bytes cannot hold %d manifests", errManifest, len(b), n)
	}
	out := make([][]byte, n)
	rest := b
	for i := range out {
		size, tail, ok := cutUvarint(rest)
		if !ok || size > uint64(len(tail)) {
			return nil, fmt.Errorf("%w: manifest %d of %d runs past the %d-byte marker", errManifest, i, n, len(b))
		}
		out[i], rest = tail[:size:size], tail[size:]
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("%w: %d bytes after %d manifests", errManifest, len(rest), n)
	}
	return out, nil
}

// manifest is a sealed stage's seal manifest, as a reader of one of its rounds
// holds it: the AppendCommit entries of the stage's writers, in order. A
// boundary's senders are the writers of its first round; a multi-level
// boundary's regroup stage has one writer per group, the only writer of that
// group's round.
type manifest struct {
	b       []byte
	writers int
}

// sealedRefs is discover on the staged protocol: it walks the manifest once
// and returns, in writer order, where slot's bytes of the attempt the driver
// sealed for each writer of the round are. It issues no request and never
// waits — the marker exists only once every writer reported — and allocates
// nothing the manifest cannot back: an entry takes two bytes at least. An
// entry of the round's own writers with another offset count than the
// round's fails the read: its ranges would be another round's.
func (r round) sealedRefs(m manifest, slot int) ([]ref, error) {
	if slot < r.slot0 || slot >= r.slot0+r.slots {
		return nil, fmt.Errorf("%w: slot %d collected from stage %d, slots [%d,%d)", errShape, slot, r.stage, r.slot0, r.slot0+r.slots)
	}
	if m.writers > len(m.b)/2 || r.writer0 < 0 || r.writer0 >= m.writers || r.writers < 1 || r.writers > m.writers-r.writer0 {
		return nil, r.badManifest(m, "too short")
	}
	count := uint64(0)
	if r.opts.Variant.WriteCombining {
		count = uint64(r.slots) + 1
	}
	at := uint64(slot - r.slot0)
	refs := make([]ref, r.writers)
	b := m.b
	for w := 0; w < m.writers; w++ {
		attempt, rest, ok := cutUvarint(b)
		n, rest, ok2 := cutUvarint(rest)
		if !ok || !ok2 || attempt > math.MaxInt32 || n > uint64(len(rest)) {
			return nil, r.badManifest(m, "truncated")
		}
		b = rest
		mine := w >= r.writer0 && w < r.writer0+r.writers
		if mine && n != count {
			return nil, r.badManifest(m, "another offset count")
		}
		var off, lo, hi uint64
		for j := uint64(0); j < n; j++ {
			d, rest, ok := cutUvarint(b)
			if !ok || d > math.MaxInt64-off {
				return nil, r.badManifest(m, "bad offset")
			}
			b, off = rest, off+d
			switch j {
			case at:
				lo = off
			case at + 1:
				hi = off
			}
		}
		if mine {
			refs[w-r.writer0] = r.slotRef(w, int(attempt), slot, int64(lo), int64(hi))
		}
	}
	if len(b) > 0 {
		return nil, r.badManifest(m, "trailing bytes")
	}
	return refs, nil
}

// cutUvarint reads one uvarint off the front of b.
func cutUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// badManifest is sealedRefs' error, built only on failure.
func (r round) badManifest(m manifest, why string) error {
	return fmt.Errorf("%w: %d bytes for %d writers, read as stage %d's writers [%d,%d) of %d slots: %s",
		errManifest, len(m.b), m.writers, r.stage, r.writer0, r.writer0+r.writers, r.slots, why)
}

// read fetches what discover or sealedRefs located — the refs of one round,
// or of each of several — one request per ref through client's one request
// window: a slot of one writer is small, and taken one by one the reads'
// first-byte latencies are the round. It returns the blobs in ref order, one
// per ref, with the bytes transferred; an empty range (which S3 rejects when
// it starts at the object's end) is not read, and it and a size-only object
// yield nil blobs, a real object never does. The first ref, in that order,
// whose read fails is the one reported.
func read(client *s3.Client, rounds ...[]ref) (blobs [][]byte, n int64, err error) {
	total := 0
	for _, refs := range rounds {
		total += len(refs)
	}
	blobs = make([][]byte, total)
	// The window's calls come in index order: walk the rounds alongside.
	var refs []ref
	err = client.Overlap(total, func(i int, lane *s3.Client) (err error) {
		for len(refs) == 0 {
			refs, rounds = rounds[0], rounds[1:]
		}
		f := refs[0]
		refs = refs[1:]
		var got int64
		switch {
		case !f.ranged:
			blobs[i], got, err = lane.Get(f.bucket, f.key, 1)
		case f.hi > f.lo:
			blobs[i], got, err = lane.GetRange(f.bucket, f.key, f.lo, f.hi-f.lo, 1)
		}
		if err != nil {
			return fmt.Errorf("exchange: reading %s: %w", f.key, err)
		}
		n += got
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return blobs, n, nil
}
