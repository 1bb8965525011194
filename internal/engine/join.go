package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"lambada/internal/columnar"
)

// ErrJoinKey tags OutSchema errors for join key types the hash-join table
// does not cover (anything but BIGINT). Callers detect it with errors.Is.
var ErrJoinKey = errors.New("unsupported join key")

// JoinPlan is an inner hash join: the Right (small) side is materialized
// into a hash table, the Left side streams through it. In distributed
// plans the right side is a broadcast table (§3.2's "small amounts of data
// ... that should be broadcasted into the serverless workers"), which every
// worker of the stage reads whole.
//
// Keys are the equal-length lists LeftKeys/RightKeys: row i of the left
// keys joins against row i of the right keys. All key columns must be
// Int64: a single key uses the table's dense or open-addressing int64
// modes, several keys the encoded-string mode.
type JoinPlan struct {
	Left, Right         Plan
	LeftKeys, RightKeys []string
}

// normalizeKeys flips key pairs written in the wrong orientation: when a
// pair's left key only resolves against the right schema and its right
// key against the left one (e.g. SQL's unqualified `ON s_suppkey =
// l_suppkey`, which the parser assigns positionally), the pair is
// swapped. Called by Resolve once both sides' schemas are known; pairs
// that resolve as written, or not at all, are left for OutSchema to
// validate.
func (p *JoinPlan) normalizeKeys() {
	ls, err := p.Left.OutSchema()
	if err != nil {
		return
	}
	rs, err := p.Right.OutSchema()
	if err != nil {
		return
	}
	lk, rk := p.LeftKeys, p.RightKeys
	if len(lk) != len(rk) {
		return
	}
	for i := range lk {
		if ls.Index(lk[i]) < 0 && rs.Index(lk[i]) >= 0 &&
			ls.Index(rk[i]) >= 0 && rs.Index(rk[i]) < 0 {
			lk[i], rk[i] = rk[i], lk[i]
		}
	}
}

// OutSchema is the left schema followed by the right schema minus the
// right join keys (which duplicate the left ones). Other duplicate column
// names are rejected, as are key types the join table does not cover
// (ErrJoinKey): keys must be Int64 on both sides — bool and float keys
// fail here, at planning time, instead of panicking at build time.
func (p *JoinPlan) OutSchema() (*columnar.Schema, error) {
	lk, rk := p.LeftKeys, p.RightKeys
	if len(lk) == 0 || len(lk) != len(rk) {
		return nil, fmt.Errorf("engine: join needs matching key lists, got %d left / %d right", len(lk), len(rk))
	}
	ls, err := p.Left.OutSchema()
	if err != nil {
		return nil, err
	}
	rs, err := p.Right.OutSchema()
	if err != nil {
		return nil, err
	}
	rightKeys := make(map[int]bool, len(rk))
	for i := range lk {
		li := ls.Index(lk[i])
		if li < 0 {
			return nil, fmt.Errorf("engine: join key %q not in left input", lk[i])
		}
		ri := rs.Index(rk[i])
		if ri < 0 {
			return nil, fmt.Errorf("engine: join key %q not in right input", rk[i])
		}
		if t := ls.Fields[li].Type; t != columnar.Int64 {
			return nil, fmt.Errorf("engine: %w: left key %q has type %v (only BIGINT keys are hashable)", ErrJoinKey, lk[i], t)
		}
		if t := rs.Fields[ri].Type; t != columnar.Int64 {
			return nil, fmt.Errorf("engine: %w: right key %q has type %v (only BIGINT keys are hashable)", ErrJoinKey, rk[i], t)
		}
		rightKeys[ri] = true
	}
	out := &columnar.Schema{}
	out.Fields = append(out.Fields, ls.Fields...)
	for i, f := range rs.Fields {
		if rightKeys[i] {
			continue
		}
		if ls.Index(f.Name) >= 0 {
			return nil, fmt.Errorf("engine: duplicate column %q across join sides", f.Name)
		}
		out.Fields = append(out.Fields, f)
	}
	return out, nil
}

// Child returns the probe (left) side — the primary pipeline.
func (p *JoinPlan) Child() Plan { return p.Left }

// String describes the join.
func (p *JoinPlan) String() string {
	lk, rk := p.LeftKeys, p.RightKeys
	pairs := make([]string, len(lk))
	for i := range lk {
		r := ""
		if i < len(rk) {
			r = rk[i]
		}
		pairs[i] = lk[i] + " = " + r
	}
	return "HashJoin " + strings.Join(pairs, ", ")
}

// joinMode selects the key addressing scheme of a joinTable, mirroring the
// aggBuilder group-addressing matrix: a direct-index table when the single
// int64 key spans a narrow range, open addressing on the raw int64 for a
// single wide key, and an encoded-string map only for the multi-key
// fallback.
type joinMode uint8

const (
	joinEmpty  joinMode = iota // empty build side: every probe misses
	joinDense                  // single int64 key, narrow range: direct index
	joinInt64                  // single int64 key: open addressing
	joinString                 // multi-key: encoded-string map
)

// maxDenseJoinSlots bounds the dense mode's direct-index table.
const maxDenseJoinSlots = 1 << 16

// joinTable is the sealed build side of a hash join: built once, read-only
// afterwards. Every mode resolves a key to a bucket whose build rows are a
// CSR row list (starts/rows), ascending build-row order within every bucket,
// so probe output matches the row-at-a-time reference order.
type joinTable struct {
	build  *columnar.Chunk // materialized build side, row order preserved
	keyIdx []int           // key column positions in build
	mode   joinMode

	starts []int32 // bucket b's build rows are rows[starts[b]:starts[b+1]]
	rows   []int32

	// joinDense: bucket = key - lo, for keys in [lo, lo+span)
	lo   int64
	span int64
	// joinInt64: open addressing with linear probing
	mask uint64  // len(keys)-1, power of two
	keys []int64 // key slots
	slot []int32 // bucket + 1; 0 = empty
	// joinString: encoded composite key → bucket
	smap map[string]int32
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// encodeJoinKey appends the composite key of build/probe row i to buf.
func encodeJoinKey(buf []byte, cols []*columnar.Vector, keyIdx []int, i int) []byte {
	for _, ki := range keyIdx {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(cols[ki].Int64s[i]))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// buildJoinTable seals the materialized build side into a join table.
func buildJoinTable(build *columnar.Chunk, keyIdx []int) *joinTable {
	t := &joinTable{build: build, keyIdx: keyIdx}
	n := build.NumRows()
	if n == 0 {
		t.mode = joinEmpty
		return t
	}
	ords := make([]int32, n) // build row → bucket
	buckets := 0
	if len(keyIdx) > 1 {
		t.mode = joinString
		t.smap = make(map[string]int32, n)
		var buf []byte
		for i := range ords {
			buf = encodeJoinKey(buf[:0], build.Columns, keyIdx, i)
			ord, ok := t.smap[string(buf)]
			if !ok {
				ord = int32(len(t.smap))
				t.smap[string(buf)] = ord
			}
			ords[i] = ord
		}
		t.seal(ords, len(t.smap))
		return t
	}

	keys := build.Columns[keyIdx[0]].Int64s
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	if span := uint64(hi) - uint64(lo); span < maxDenseJoinSlots && int64(span) <= 4*int64(n)+64 {
		t.mode = joinDense
		t.lo, t.span = lo, int64(span)+1
		for i, k := range keys {
			ords[i] = int32(k - lo)
		}
		t.seal(ords, int(t.span))
		return t
	}

	t.mode = joinInt64
	capacity := nextPow2(2 * n)
	if capacity < 8 {
		capacity = 8
	}
	t.mask = uint64(capacity - 1)
	t.keys = make([]int64, capacity)
	t.slot = make([]int32, capacity)
	for i, k := range keys {
		idx := columnar.Hash64(k) & t.mask
		for t.slot[idx] != 0 && t.keys[idx] != k {
			idx = (idx + 1) & t.mask
		}
		if t.slot[idx] == 0 {
			buckets++
			t.keys[idx], t.slot[idx] = k, int32(buckets)
		}
		ords[i] = t.slot[idx] - 1
	}
	t.seal(ords, buckets)
	return t
}

// seal lays the bucket row lists out as CSR with a counting sort: ords[i]
// is build row i's bucket, and rows keep ascending order within a bucket.
func (t *joinTable) seal(ords []int32, buckets int) {
	t.starts = make([]int32, buckets+1)
	for _, b := range ords {
		t.starts[b+1]++
	}
	for b := 1; b <= buckets; b++ {
		t.starts[b] += t.starts[b-1]
	}
	t.rows = make([]int32, len(ords))
	cursor := make([]int32, buckets)
	copy(cursor, t.starts[:buckets])
	for i, b := range ords {
		t.rows[cursor[b]] = int32(i)
		cursor[b]++
	}
}

// match appends probe row row paired with every build row of bucket b.
func (t *joinTable) match(b int32, row int, lsel, rsel []int) ([]int, []int) {
	for _, m := range t.rows[t.starts[b]:t.starts[b+1]] {
		lsel = append(lsel, row)
		rsel = append(rsel, int(m))
	}
	return lsel, rsel
}

// probeChunk appends the (probe row, build row) match pairs of chunk c to
// the caller-owned selection vectors lsel/rsel, reusing keyBuf as the
// composite-key scratch. Pairs are emitted in (probe row asc, build row
// asc) order — the same order the row-at-a-time reference kernel produced.
func (t *joinTable) probeChunk(c *columnar.Chunk, leftKeyIdx []int, lsel, rsel []int, keyBuf []byte) ([]int, []int, []byte) {
	switch t.mode {
	case joinEmpty:
	case joinDense:
		for row, k := range c.Columns[leftKeyIdx[0]].Int64s {
			if off := k - t.lo; off >= 0 && off < t.span {
				lsel, rsel = t.match(int32(off), row, lsel, rsel)
			}
		}
	case joinInt64:
		for row, k := range c.Columns[leftKeyIdx[0]].Int64s {
			idx := columnar.Hash64(k) & t.mask
			for t.slot[idx] != 0 && t.keys[idx] != k {
				idx = (idx + 1) & t.mask
			}
			if s := t.slot[idx]; s != 0 {
				lsel, rsel = t.match(s-1, row, lsel, rsel)
			}
		}
	case joinString:
		n := c.NumRows()
		for row := 0; row < n; row++ {
			keyBuf = encodeJoinKey(keyBuf[:0], c.Columns, leftKeyIdx, row)
			if b, ok := t.smap[string(keyBuf)]; ok {
				lsel, rsel = t.match(b, row, lsel, rsel)
			}
		}
	}
	return lsel, rsel, keyBuf
}
