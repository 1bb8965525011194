package engine

import (
	"errors"
	"fmt"
	"slices"
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
// Int64; one key or several, the build side's keys are numbered by one
// columnar.KeyTable.
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
	ls, err := p.Left.OutSchema()
	if err != nil {
		return nil, err
	}
	rs, err := p.Right.OutSchema()
	if err != nil {
		return nil, err
	}
	return p.schemaFrom(ls, rs)
}

// schemaFrom is the output schema over the left and right input schemas ls
// and rs.
func (p *JoinPlan) schemaFrom(ls, rs *columnar.Schema) (*columnar.Schema, error) {
	lk, rk := p.LeftKeys, p.RightKeys
	if len(lk) == 0 || len(lk) != len(rk) {
		return nil, fmt.Errorf("engine: join needs matching key lists, got %d left / %d right", len(lk), len(rk))
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

// joinTable is the sealed build side of a hash join: built once, read-only
// afterwards. Its key table numbers the distinct build keys, and each
// number is a bucket whose build rows are a CSR row list (starts/rows), in
// ascending build-row order, so probe output matches the row-at-a-time
// reference order.
type joinTable struct {
	build *columnar.Chunk   // materialized build side, row order preserved
	keys  columnar.KeyTable // build keys → bucket

	starts []int32 // bucket b's build rows are rows[starts[b]:starts[b+1]]
	rows   []int32
}

// buildJoinTable seals the materialized build side into a join table.
func buildJoinTable(build *columnar.Chunk, keyIdx []int) joinTable {
	t := joinTable{build: build}
	cols := make([][]int64, len(keyIdx))
	for j, ki := range keyIdx {
		cols[j] = build.Columns[ki].Int64s
	}
	ords := make([]int32, build.NumRows()) // build row → bucket
	t.keys.Reset(len(keyIdx))
	t.keys.Number(cols, ords)

	// The bucket row lists, laid out as CSR by a counting sort: starts[b]
	// counts up to bucket b's end, then down to its start as its rows are
	// placed, last first, so they stay in ascending order.
	buckets := t.keys.Len()
	csr := make([]int32, buckets+1+len(ords)) // starts and rows, one allocation
	t.starts, t.rows = csr[:buckets+1], csr[buckets+1:]
	for _, b := range ords {
		t.starts[b]++
	}
	for b := 1; b <= buckets; b++ {
		t.starts[b] += t.starts[b-1]
	}
	for i := len(ords) - 1; i >= 0; i-- {
		t.starts[ords[i]]--
		t.rows[t.starts[ords[i]]] = int32(i)
	}
	return t
}

// probeChunk appends the (probe row, build row) match pairs of chunk c to
// the caller-owned selection vectors lsel/rsel, in (probe row asc, build
// row asc) order — the row-at-a-time reference kernel's order. It first
// grows them to room for one match a probe row, so a 1:1 join appends
// without reallocating.
func (t *joinTable) probeChunk(c *columnar.Chunk, leftKeyIdx []int, lsel, rsel []int) ([]int, []int) {
	n := c.NumRows()
	lsel, rsel = slices.Grow(lsel, n), slices.Grow(rsel, n)
	var buf [4]int64 // the probe tuple, on the stack for up to four keys
	key := buf[:0]
	for range leftKeyIdx {
		key = append(key, 0)
	}
	for row := 0; row < n; row++ {
		for j, ki := range leftKeyIdx {
			key[j] = c.Columns[ki].Int64s[row]
		}
		if b := t.keys.Find(key); b >= 0 {
			for _, m := range t.rows[t.starts[b]:t.starts[b+1]] {
				lsel = append(lsel, row)
				rsel = append(rsel, int(m))
			}
		}
	}
	return lsel, rsel
}
