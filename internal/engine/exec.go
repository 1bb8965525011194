package engine

import (
	"errors"
	"fmt"
	"sort"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Catalog maps table names to scan sources.
type Catalog map[string]Source

// Resolve fills in the table schemas of all scans in the plan (both join
// sides included).
func Resolve(p Plan, cat Catalog) error {
	if p == nil {
		return nil
	}
	if s, ok := p.(*ScanPlan); ok {
		src, found := cat[s.Table]
		if !found {
			return fmt.Errorf("engine: unknown table %q", s.Table)
		}
		schema, err := src.Schema()
		if err != nil {
			return err
		}
		s.TableSchema = schema
		return nil
	}
	if j, ok := p.(*JoinPlan); ok {
		if err := Resolve(j.Right, cat); err != nil {
			return err
		}
		if err := Resolve(j.Left, cat); err != nil {
			return err
		}
		// Both sides' schemas are known now: repair key pairs written in
		// the wrong orientation (SQL's unqualified `ON s_suppkey =
		// l_suppkey` is assigned positionally by the parser).
		j.normalizeKeys()
		return nil
	}
	return Resolve(p.Child(), cat)
}

// Execute runs the plan and materializes its (small) result as one chunk:
// the plan is compiled into a DAG of pipelines (see pipeline.go), whose
// nodes then run in topological order on the caller's goroutine,
// chunk-at-a-time between breakers.
func Execute(p Plan, cat Catalog) (*columnar.Chunk, error) {
	if err := Resolve(p, cat); err != nil {
		return nil, err
	}
	g, root, err := compileGraph(p, cat)
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		if err := n.run(); err != nil {
			return nil, err
		}
	}
	return root.out, nil
}

// ParallelConfig has no effect; see ExecuteParallel.
type ParallelConfig struct {
	Pipelines int // ignored
}

// ExecuteParallel is Execute: cfg has no effect. It stays only for callers
// outside this module's packages that still pass a ParallelConfig
// (bench/replay.go).
func ExecuteParallel(p Plan, cat Catalog, _ ParallelConfig) (*columnar.Chunk, error) {
	return Execute(p, cat)
}

// applyFilter evaluates pred and gathers the passing rows. It is the one
// filter kernel of the pipeline executor. sel is a caller-owned selection-
// vector scratch reused across chunks (pass nil the first time); the
// possibly-grown scratch is returned for the next call. Gather copies the
// selected rows, so reusing sel immediately is safe. When pool is non-nil
// the predicate is evaluated through it and a gathered result comes from it
// (pooled=true); the caller owns recycling that per the columnar.Pool
// contract.
func applyFilter(c *columnar.Chunk, pred Expr, sel []int, pool *columnar.Pool) (out *columnar.Chunk, selOut []int, pooled bool, err error) {
	sel, err = FilterSelection(c, pred, sel, pool)
	if err != nil {
		return nil, sel, false, err
	}
	if len(sel) == c.NumRows() {
		return c, sel, false, nil
	}
	if pool != nil {
		out := pool.GetChunk(c.Schema, len(sel))
		out.AppendGather(c, sel)
		return out, sel, true, nil
	}
	return c.Gather(sel), sel, false, nil
}

// FilterSelection evaluates pred over c through pool (nil allocates) and
// returns the indices of passing rows, appended into the (reset)
// caller-owned scratch sel — or, when sel is too small, into one slice of
// exactly their count; the predicate's vector goes back to pool. It is
// the selection kernel shared by the pipeline filter stage and filterable
// sources' late-materialized scans.
func FilterSelection(c *columnar.Chunk, pred Expr, sel []int, pool *columnar.Pool) ([]int, error) {
	v, err := pred.Eval(c, pool)
	if err != nil {
		return sel, err
	}
	if v.Type != columnar.Bool {
		return sel, fmt.Errorf("engine: filter predicate of type %v", v.Type)
	}
	// Count first, so that a scratch too small is replaced once, at the
	// exact size, instead of growing by append.
	pass := v.Bools[:c.NumRows()]
	k := 0
	for _, b := range pass {
		if b {
			k++
		}
	}
	if cap(sel) < k {
		sel = make([]int, 0, k)
	}
	sel = sel[:0]
	for i, b := range pass {
		if b {
			sel = append(sel, i)
		}
	}
	release(pool, pred, v)
	return sel, nil
}

// sortChunk sorts by keys, stable. Each key column is compared in its own
// type: int64 keys as int64 (a float64 comparison would silently collapse
// neighbouring keys beyond 2^53), float64 as float64, bool as false < true.
func sortChunk(c *columnar.Chunk, keys []OrderKey) (*columnar.Chunk, error) {
	idx := make([]int, c.NumRows())
	for i := range idx {
		idx[i] = i
	}
	cols := make([]*columnar.Vector, len(keys))
	for i, k := range keys {
		cols[i] = c.Column(k.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: order key %q missing", k.Column)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for i, k := range keys {
			var less bool
			switch cols[i].Type {
			case columnar.Int64:
				av, bv := cols[i].Int64s[idx[a]], cols[i].Int64s[idx[b]]
				if av == bv {
					continue
				}
				less = av < bv
			case columnar.Float64:
				av, bv := cols[i].Float64s[idx[a]], cols[i].Float64s[idx[b]]
				if av == bv {
					continue
				}
				less = av < bv
			default:
				av, bv := cols[i].Bools[idx[a]], cols[i].Bools[idx[b]]
				if av == bv {
					continue
				}
				less = !av
			}
			if k.Desc {
				return !less
			}
			return less
		}
		return false
	})
	return c.Gather(idx), nil
}

// ---- the memory budget of a worker ----

// ErrWorkerOOM is reported when a worker's working set exceeds its memory.
var ErrWorkerOOM = errors.New("worker out of memory")

// MemoryBudget returns the execution-engine limit of a worker of memoryMiB,
// which it holds its inputs to and the driver its result: the function's
// memory minus a fixed headroom for the handler and runtime. §3.3: the handler
// "starts the execution engine ... with a memory limit slightly lower than
// that of the serverless function such that it can report out-of-memory
// situations ... rather than dying silently".
func MemoryBudget(memoryMiB int) int64 {
	const headroomMiB = 192
	return max(int64(memoryMiB-headroomMiB)<<20, 1<<20)
}

// ResidentBudget is the share of MemoryBudget that the inputs a task holds
// whole draw on together: its build sides, charged from their footers
// (scan.Source.Hold), and the partitions it collected or a regroup's group,
// held to it by the decoder (lpq.ReadFiles) before it allocates.
func ResidentBudget(memoryMiB int) int64 { return MemoryBudget(memoryMiB) / 3 }

// CheckWorkingSet is the engine's working-set rule: n bytes of input need 3×
// that within the budget, or the worker reports ErrWorkerOOM. The scan
// pipeline holds the decoded chunk plus the compressed download buffers, and
// a join its inputs plus build-side structures and output; 3× is the factor
// of the paper's double-buffered scan, which also holds the next group. What
// the scan's request window holds beyond the group being decoded — at most
// its payload break-even, ≈ 2.9 MiB of compressed bytes of the groups after
// it, and as much for each other table while the task's first window waits
// to be scanned — is that next group's share. A scanned chunk is checked
// here, after its row group's rows × widths were held to the budget from the
// footer before any of its bytes were fetched (scan.Pinned).
func CheckWorkingSet(n, budget int64) error {
	if need := 3 * n; need > budget {
		return fmt.Errorf("%w: chunk working set %d MiB exceeds engine budget %d MiB", ErrWorkerOOM, need>>20, budget>>20)
	}
	return nil
}

// OutOfMemory reports lpq bytes the decoder refused at its bound as
// ErrWorkerOOM; any other error passes through.
func OutOfMemory(err error) error {
	if errors.Is(err, lpq.ErrOverBound) {
		return fmt.Errorf("%w: %w", ErrWorkerOOM, err)
	}
	return err
}
