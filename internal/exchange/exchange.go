package exchange

import (
	"errors"
	"fmt"
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
	// Poll is the reader's retry interval while waiting for commits. It is an
	// upper bound: waits park on the completion signal s3.Put broadcasts
	// (simenv.WaitNotifyKey) and wake the moment a writer's commit lands.
	Poll time.Duration
	// MaxWait bounds a reader's total wait for one round's commits.
	MaxWait time.Duration
}

// ready narrows the bucket pool to the variant's chosen shard count
// (Variant.Buckets), at every entry point, so that a plan-chosen B takes
// effect no matter which worker role executes the boundary. Sweeps keep the
// full pool: debris from an earlier, wider choice must still be found.
func (o Options) ready() (Options, error) {
	if len(o.Buckets) == 0 {
		return o, errors.New("exchange: no buckets configured")
	}
	if n := o.Variant.Buckets; n > 0 && n < len(o.Buckets) {
		o.Buckets = o.Buckets[:n]
	}
	return o, nil
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

// RoundTrace is the phase breakdown of one exchange round (Figure 13).
type RoundTrace struct {
	Write time.Duration // publishing this worker's slots
	Wait  time.Duration // discovering every group member's commit
	Read  time.Duration // reading the incoming slots
}

// Trace records a worker's per-phase timings.
type Trace struct {
	Rounds []RoundTrace
	Total  time.Duration
}

// trade runs this worker's part of one grid level. Along dimension `level`
// the workers that agree on every other coordinate form a group, and the
// group is a boundary of its own: as many writers as slots, writer and slot c
// being the member whose coordinate is c, under the sub-prefix and in the one
// shard bucket of (level, group). The worker publishes its slots there as
// writer c and collects slot c.
func (w Worker) trade(opts Options, g grid, level int, body []byte, offsets []int64) (blobs [][]byte, n int64, rt RoundTrace, err error) {
	group, c := g.groupID(w.ID, level), g.coord(w.ID, level)
	opts.Buckets = []string{opts.Buckets[(level*31+group)%len(opts.Buckets)]}
	opts.Prefix = fmt.Sprintf("%s/r%d/g%d", opts.Prefix, level, group)
	r := round{client: w.Client, opts: opts, writers: g.factors[level], slots: g.factors[level]}
	env := w.Client.Env()
	start := env.Now()
	if err = r.publish(c, 0, body, offsets); err != nil {
		return nil, 0, rt, err
	}
	written := env.Now()
	refs, err := r.discover(c)
	if err != nil {
		return nil, 0, rt, err
	}
	found := env.Now()
	blobs, n, err = r.read(refs)
	return blobs, n, RoundTrace{Write: written - start, Wait: found - written, Read: env.Now() - found}, err
}

// Run executes the exchange for one worker on real data: rows of input are
// routed by the hash of the key column so that afterwards every row with
// PartitionOf(key, P) == w.ID resides at this worker. All P workers must
// call Run concurrently (goroutines or DES processes). A k-level exchange is
// k trades (§4.4.2): at each level a row moves to the group member that
// shares the level's coordinate with the row's final partition.
func (w Worker) Run(opts Options, input *columnar.Chunk, key string) (*columnar.Chunk, error) {
	opts, err := opts.ready()
	if err != nil {
		return nil, err
	}
	if input.Column(key) == nil {
		return nil, fmt.Errorf("exchange: key column %q missing", key)
	}
	g := newGrid(w.P, opts.Variant.Levels)
	cur := input
	for level, side := range g.factors {
		keys := cur.Column(key)
		slot := make([]int, cur.NumRows())
		for i := range slot {
			slot[i] = g.coord(PartitionOf(keys.Int64At(i), w.P), level)
		}
		scattered, bounds := scatter(cur, slot, side)
		body, offsets, err := encodeSlots(scattered, bounds)
		if err == nil {
			var blobs [][]byte
			if blobs, _, _, err = w.trade(opts, g, level, body, offsets); err == nil {
				cur, err = decodeBlobs(blobs)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("exchange: worker %d round %d: %w", w.ID, level, err)
		}
	}
	return cur, nil
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

// RunSyntheticTraced is RunSynthetic with a per-phase breakdown: Run's loop
// on sizes, each level cutting what the worker holds into equal slots.
func (w Worker) RunSyntheticTraced(opts Options, inputBytes int64) (int64, *Trace, error) {
	opts, err := opts.ready()
	if err != nil {
		return 0, nil, err
	}
	env := w.Client.Env()
	trace := &Trace{}
	begin := env.Now()
	g := newGrid(w.P, opts.Variant.Levels)
	cur := inputBytes
	for level, side := range g.factors {
		offsets := make([]int64, side+1)
		for i := range offsets {
			offsets[i] = int64(i) * (cur / int64(side))
		}
		offsets[side] = cur
		_, got, rt, err := w.trade(opts, g, level, nil, offsets)
		if err != nil {
			return 0, trace, err
		}
		trace.Rounds = append(trace.Rounds, rt)
		cur = got
	}
	trace.Total = env.Now() - begin
	return cur, trace, nil
}
