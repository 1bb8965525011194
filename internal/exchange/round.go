// Package exchange implements Lambada's purely serverless exchange operator
// family (§4.4): workers that cannot accept connections shuffle data through
// S3. The package has one protocol, the round (round.go), which is the
// paper's basic step (§4.4.1): every writer cuts a body into slots and
// commits it under an attempt number; the reader of a slot "repeats until the
// files exist" — waits until every writer has a committed attempt — takes each
// writer's lowest one and reads its slot of each. Write combining (§4.4.3) is
// the round's one switch: a writer Puts a single object with the slots'
// offsets in its name instead of a file per slot and a commit marker. Names
// come from one codec (boundaryKey). Everything else composes rounds:
//
//   - A single-round stage boundary (Boundary with Levels 1; PublishStage,
//     CollectStage) is one round of S senders and P partitions: S·P requests.
//   - A multi-level stage boundary (§4.4.2, Levels >= 2) is a round of S
//     senders and G = Groups(P) ≈ √P groups of consecutive partitions,
//     followed per group by a one-writer round — the group's regroup worker
//     (RegroupStage) — over the group's partitions. A regroup worker merges
//     its group sender-ascending and splits it by the same hash, so receivers
//     collect the rows of the single-round boundary, byte for byte, for
//     G·S + P reads instead of S·P (Variant.Requests has the exact counts).
//     Attempts compose: both kinds of writer are retried and speculated like
//     any stage fragment, and readers take the lowest committed attempt.
//   - The symmetric P-worker grid exchange of Table 2 (Worker.Run, and
//     RunSynthetic on sizes) is k levels; along each level the workers that
//     agree on every other grid coordinate are a boundary of their own, with
//     as many senders as partitions, in its own namespace and shard bucket.
//     A k-level exchange is the loop bound.
//
// Sharding the objects over buckets (§4.4.1) multiplies S3's per-bucket rate
// limits; the two optimizations bring request cost below worker cost
// (Figure 9, costmodel.go).
//
// A reader keeps its requests in flight, as the paper's worker does: the
// reads of a slot (one small range per writer), the Lists of a discovery pass
// (one per shard bucket) and a sweep's List and DeleteObjects per bucket all
// go through the S3 client's request window (s3.Client.Overlap), in the order
// and with the results of a serial loop and a sixteenth of its first-byte
// latencies. Writers Put one object after another: an upload cannot ride a
// lane of the window.
package exchange

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
)

// errKey marks an object name the key codec does not produce; errShape marks
// a well-formed name, or a row, that does not belong to the round it was
// found in — a writer outside the round, another slot count, a misrouted row.
var (
	errKey   = errors.New("exchange: bad boundary key")
	errShape = errors.New("exchange: boundary shape mismatch")
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
	combinedKey keyForm = iota // write-combined body, slot offsets in the name (§4.4.3)
	fileKey                    // one slot of one writer
	commitKey                  // zero-byte marker, written after the writer's last slot file
)

// kindTags holds the parts of a name that differ by round kind.
var kindTags = [...]struct{ combined, slotDir, file, commitDir, commit string }{
	sendRound:    {"snd", "p", "snd", "commit", "snd"},
	groupRound:   {"r1snd", "g", "snd", "r1commit", "snd"},
	regroupRound: {"rg", "p", "rg", "rgcommit", "g"},
}

// boundaryKey is the name of one round object:
//
//	combinedKey  <prefix>/s<stage>/<combined><writer>-a<attempt>-off<offsets>
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
	offsets string // combinedKey only: slots+1 cumulative byte offsets, as joinOffsets renders them
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
			b = fmt.Appendf(b, "a%d-off%s", k.attempt, k.offsets)
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
			a, offsets, found := strings.Cut(tail, "-off")
			k.writer, k.attempt, k.offsets = num(w, t.combined), num(a, ""), offsets
			ok = ok && found
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
}

func (r round) bucket(id int) string {
	return r.opts.Buckets[(r.stage*31+id)%len(r.opts.Buckets)]
}

func (r round) key(form keyForm, writer, attempt int) boundaryKey {
	return boundaryKey{prefix: r.opts.Prefix, stage: r.stage, kind: r.kind, form: form, writer: writer, attempt: attempt}
}

// publish commits writer's body under attempt: slot slot0+i is
// body[offsets[i]:offsets[i+1]]. A nil body publishes size-only objects of
// the same lengths (the synthetic runs of the DES experiments). Publishing
// the same body under another attempt writes byte-identical objects beside
// the first ones; losers linger until Sweep.
func (r round) publish(writer, attempt int, body []byte, offsets []int64) error {
	if writer < r.writer0 || writer >= r.writer0+r.writers || len(offsets) != r.slots+1 {
		return fmt.Errorf("%w: writer %d publishing %d slots into a round of writers [%d,%d) with %d slots",
			errShape, writer, len(offsets)-1, r.writer0, r.writer0+r.writers, r.slots)
	}
	put := func(id int, k boundaryKey, lo, hi int64) error {
		if body == nil {
			return r.client.PutSynthetic(r.bucket(id), k.String(), hi-lo)
		}
		return r.client.Put(r.bucket(id), k.String(), body[lo:hi])
	}
	if r.opts.Variant.WriteCombining {
		k := r.key(combinedKey, writer, attempt)
		k.offsets = joinOffsets(offsets)
		return put(writer, k, offsets[0], offsets[r.slots])
	}
	k := r.key(fileKey, writer, attempt)
	for i := 0; i < r.slots; i++ {
		k.slot = r.slot0 + i
		if err := put(k.slot, k, offsets[i], offsets[i+1]); err != nil {
			return err
		}
	}
	// The marker goes last: a reader that sees it can read any slot of the
	// attempt without waiting (S3 writes are strongly consistent).
	return put(writer, r.key(commitKey, writer, attempt), 0, 0)
}

// ref locates one writer's bytes of the slot being collected: a range of its
// combined object, or the slot's whole file.
type ref struct {
	bucket, key string
	attempt     int
	lo, hi      int64
}

// discover waits until every writer of the round has a committed attempt and
// returns, in ascending writer order, where slot's bytes of each writer's
// lowest committed attempt are. Later attempts (a straggler that lost a
// speculation race) and uncommitted ones (the partial file set of an aborted
// attempt) are ignored; fragments being deterministic, which attempt wins
// never changes the bytes. Discovery is one List per shard bucket per pass,
// only of buckets that still host an unseen writer, issued together through
// the client's request window and filed in bucket order; between passes the
// reader parks on the completion topic of the round's commit namespace, which
// only a commit of this round broadcasts on (topics omit the bucket, so one
// covers all shards), with Poll as the fallback. An object that parses but
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
	env := r.client.Env()
	deadline := env.Now() + r.opts.MaxWait
	for {
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
				k, err := parseBoundaryKey(e.Key)
				if err != nil {
					return err
				}
				w := k.writer - r.writer0
				if k.prefix != r.opts.Prefix || k.stage != r.stage || k.kind != r.kind || k.form != form || w < 0 || w >= r.writers {
					return misfit(e.Key, "not an object of this round")
				}
				if refs[w].key == e.Key {
					continue // vetted and taken on an earlier pass
				}
				found := ref{bucket: pending[i], key: e.Key, attempt: k.attempt}
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
		if err != nil {
			return nil, err
		}
		if seen == r.writers {
			break
		}
		if env.Now() >= deadline {
			return nil, fmt.Errorf("exchange: %d/%d writers committed under %s after %v", seen, r.writers, prefix, r.opts.MaxWait)
		}
		simenv.WaitNotifyKey(env, "s3/"+prefix, r.opts.Poll)
	}
	if form == commitKey {
		for i := range refs {
			k := r.key(fileKey, r.writer0+i, refs[i].attempt)
			k.slot = slot
			refs[i].bucket, refs[i].key = r.bucket(slot), k.String()
		}
	}
	return refs, nil
}

// read fetches what discover located, one request per writer through the
// client's request window — a slot of one writer is small, and taken one by
// one the reads' first-byte latencies are the round — and returns the blobs
// in writer order with the bytes transferred. The first writer, in that
// order, whose read fails is the one reported. Size-only objects yield nil
// blobs.
func (r round) read(refs []ref) (blobs [][]byte, n int64, err error) {
	blobs = make([][]byte, 0, len(refs))
	err = r.client.Overlap(len(refs), func(i int, lane *s3.Client) (err error) {
		f := refs[i]
		var data []byte
		var got int64
		if !r.opts.Variant.WriteCombining {
			data, got, err = lane.Get(f.bucket, f.key, 1)
		} else if f.hi > f.lo { // S3 rejects a range that starts at the object's end
			data, got, err = lane.GetRange(f.bucket, f.key, f.lo, f.hi-f.lo, 1)
		} else {
			return nil
		}
		if err != nil {
			return fmt.Errorf("exchange: reading %s: %w", f.key, err)
		}
		blobs = append(blobs, data)
		n += got
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return blobs, n, nil
}
