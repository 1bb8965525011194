package engine

// This file is the executor behind Execute. A planner pass (compileGraph)
// decomposes any plan into a DAG of pipelines, each a streamable chain — a
// scan source (or the materialized output of an upstream pipeline) followed
// by fused filter/projection/join-probe stages — terminated by a breaker
// sink, one of two:
//
//	collect    materialize the stream, each kept row written at most once
//	           (also the join build side and the query result): in arrival
//	           order, or stable-sorted by ORDER BY keys through an index over
//	           the morsels as they arrived; a LIMIT keeps the first N rows
//	           (without keys it cancels the scan once N arrived — limit
//	           pushdown into the sink), and a LIMIT directly over an ORDER BY
//	           is the same collect
//	aggregate  group-by, one accumulator per aggregate in its argument's
//	           type (a partial aggBuilder per morsel, reset and reused,
//	           folded into the master table in arrival order); one with an
//	           AVG runs as SplitAggregate's final over its partial
//
// compileGraph types each plan node once, over its input's schema, as it
// compiles bottom-up. It appends every pipeline after the ones it depends
// on: a join's build pipeline completes (and its hash table seals) before
// the probe pipeline starts; a breaker's output node completes before the
// pipeline it feeds. Execute runs the nodes in that order, one morsel at a
// time, on the caller's goroutine: a worker has one vCPU at the paper's
// default memory size (§4.1), and a DES process must not spawn goroutines,
// so the engine starts none.
//
// Recycling: a pipeline feeding an aggregate sink has a columnar.Pool of its
// own. Its expressions evaluate through it, handing each temporary back once
// read; its gathered filter and join-probe outputs and the aggregates'
// argument vectors come from it and go back at the breaker, once the morsel
// is folded into the hash table (see the ownership contract on
// columnar.Pool). The morsel the scan yielded goes back to its source
// there too, when the source is a Recycler — and at a collect whose stream
// was counted (see collectSink), once the morsel is copied into the
// exact-size output. No other sink pools or recycles: each keeps its chunks.

import (
	"errors"
	"fmt"
	"slices"

	"lambada/internal/columnar"
)

// stage is one fused non-breaking operator of a pipeline.
type stage struct {
	filter Expr             // filter stage when non-nil
	exprs  []Expr           // projection stage when non-nil
	schema *columnar.Schema // projection output schema (precomputed)
	probe  *probeStage      // join-probe stage when non-nil
}

// probeStage probes morsels against the sealed hash table of a completed
// build pipeline.
type probeStage struct {
	build       *pnode // node materializing the build (right) side
	table       joinTable
	leftKeyIdx  []int            // key positions in the probe-side chunk
	buildKeyIdx []int            // key positions in the build chunk
	rightCols   []int            // build columns emitted (right minus keys)
	outSchema   *columnar.Schema // probe output schema
	nLeft       int
}

// pnode is one pipeline of the graph: source, fused stages, breaker sink —
// an aggregate when agg is set, else a collect.
type pnode struct {
	// Source: either a scan ...
	scan *ScanPlan
	src  Source
	// ... or the materialized output of an upstream breaker.
	input *pnode

	stages []stage

	agg       *AggregatePlan   // aggregate sink
	aggIn     *columnar.Schema // aggregate input schema
	keys      []sortKey        // collect: ORDER BY keys; none keeps arrival order
	limit     int              // collect: rows kept; -1 keeps all
	outSchema *columnar.Schema

	out *columnar.Chunk // materialized result, set when the node completes
}

// sortKey is one ORDER BY key, resolved to its column.
type sortKey struct {
	col  int
	desc bool
}

// graph is a compiled plan: pipelines in dependency (topological) order —
// compileGraph appends every dependency before its dependent.
type graph struct {
	cat   Catalog
	nodes []*pnode
}

// compileGraph decomposes a resolved plan into its pipeline DAG.
func compileGraph(p Plan, cat Catalog) (*graph, *pnode, error) {
	g := &graph{cat: cat}
	root, err := g.node(p)
	if err != nil {
		return nil, nil, err
	}
	return g, root, nil
}

// node compiles the subplan rooted at p into a pipeline whose materialized
// output equals the subplan's result; an aggregate with an AVG as
// splitLocal's. A LIMIT directly over an ORDER BY is one collect, sorted and
// limited.
func (g *graph) node(p Plan) (*pnode, error) {
	if a, ok := p.(*AggregatePlan); ok && slices.ContainsFunc(a.Aggs, func(s AggSpec) bool { return s.Func == AggAvg }) {
		final, err := splitLocal(a)
		if err != nil {
			return nil, err
		}
		return g.node(final)
	}
	n := &pnode{limit: -1}
	chainIn := p
	var order *OrderByPlan
	switch t := p.(type) {
	case *AggregatePlan:
		n.agg, chainIn = t, t.In
	case *LimitPlan:
		if t.N < 0 {
			return nil, fmt.Errorf("engine: negative limit %d", t.N)
		}
		n.limit, chainIn = t.N, t.In
		order, _ = t.In.(*OrderByPlan)
	case *OrderByPlan:
		order = t
	}
	if order != nil {
		chainIn = order.In
	}
	in, err := g.chain(chainIn, n)
	if err != nil {
		return nil, err
	}
	n.outSchema = in
	if n.agg != nil {
		n.aggIn = in
		if n.outSchema, err = n.agg.schemaFrom(in); err != nil {
			return nil, err
		}
	}
	if order != nil {
		for _, k := range order.Keys {
			col := in.Index(k.Column)
			if col < 0 {
				return nil, fmt.Errorf("engine: order key %q missing", k.Column)
			}
			n.keys = append(n.keys, sortKey{col: col, desc: k.Desc})
		}
	}
	g.nodes = append(g.nodes, n)
	return n, nil
}

// chain compiles the streamable operator chain below a sink and returns its
// output schema: it walks down through Filter/Project/Join nodes to the
// pipeline's source (a scan, or a nested breaker that becomes an input node),
// then records the stages in execution order, typing each over the schema
// below it. Join probe sides continue the chain; build sides become nodes of
// their own, compiled (and so run) first.
func (g *graph) chain(p Plan, n *pnode) (*columnar.Schema, error) {
	var ops []Plan
	var schema *columnar.Schema
	cur := p
walk:
	for {
		switch t := cur.(type) {
		case *ScanPlan:
			src := g.cat[t.Table]
			if src == nil {
				return nil, fmt.Errorf("engine: unknown table %q", t.Table)
			}
			s, err := t.OutSchema()
			if err != nil {
				return nil, err
			}
			n.scan, n.src, schema = t, src, s
			break walk
		case *FilterPlan:
			ops = append(ops, t)
			cur = t.In
		case *ProjectPlan:
			ops = append(ops, t)
			cur = t.In
		case *JoinPlan:
			ops = append(ops, t)
			cur = t.Left
		case *AggregatePlan, *OrderByPlan, *LimitPlan:
			sub, err := g.node(cur)
			if err != nil {
				return nil, err
			}
			n.input, schema = sub, sub.outSchema
			break walk
		default:
			return nil, fmt.Errorf("engine: unknown plan node %T", cur)
		}
	}
	if n.scan != nil && n.scan.Filter != nil {
		// A filterable source evaluates the scan filter itself (late
		// materialization); only re-filter chunks from plain sources.
		if _, ok := n.src.(FilterableSource); !ok {
			n.stages = append(n.stages, stage{filter: n.scan.Filter})
		}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i].(type) {
		case *FilterPlan:
			n.stages = append(n.stages, stage{filter: op.Pred})
		case *ProjectPlan:
			s, err := op.schemaFrom(schema)
			if err != nil {
				return nil, err
			}
			n.stages = append(n.stages, stage{exprs: op.Exprs, schema: s})
			schema = s
		case *JoinPlan:
			ps, err := g.probeStage(op, schema)
			if err != nil {
				return nil, err
			}
			n.stages = append(n.stages, stage{probe: ps})
			schema = ps.outSchema
		}
	}
	return schema, nil
}

// probeStage compiles a join whose probe side has schema ls: the build side
// becomes its own (collect) pipeline, the probe metadata is precomputed
// against the two sides' schemas.
func (g *graph) probeStage(j *JoinPlan, ls *columnar.Schema) (*probeStage, error) {
	build, err := g.node(j.Right)
	if err != nil {
		return nil, err
	}
	rs := build.outSchema
	outSchema, err := j.schemaFrom(ls, rs) // validates key lists and types
	if err != nil {
		return nil, err
	}
	lk, rk := j.LeftKeys, j.RightKeys
	ps := &probeStage{build: build, outSchema: outSchema, nLeft: ls.Len()}
	isKey := make(map[int]bool, len(rk))
	for i := range lk {
		ps.leftKeyIdx = append(ps.leftKeyIdx, ls.Index(lk[i]))
		ri := rs.Index(rk[i])
		ps.buildKeyIdx = append(ps.buildKeyIdx, ri)
		isKey[ri] = true
	}
	for i := range rs.Fields {
		if !isKey[i] {
			ps.rightCols = append(ps.rightCols, i)
		}
	}
	return ps, nil
}

// pipeScratch is a pipeline's reusable per-morsel state.
type pipeScratch struct {
	sel   []int             // filter selection vector
	lsel  []int             // probe-side match rows
	rsel  []int             // build-side match rows
	owned []*columnar.Chunk // pooled chunks to recycle at the breaker
}

// run seals the node's join tables, streams its morsels through the stages
// in order, and materializes the sink. errStopPipeline from the sink stops
// the scan cleanly.
func (n *pnode) run() error {
	for i := range n.stages {
		if ps := n.stages[i].probe; ps != nil {
			ps.table = buildJoinTable(ps.build.out, ps.buildKeyIdx)
		}
	}
	sk, pool, err := newSink(n)
	if err != nil {
		return err
	}
	// A sink done with a morsel hands the chunk its scan yielded back to the
	// source; a breaker's materialized output is not a scan's.
	var rec Recycler
	if n.input == nil {
		rec, _ = n.src.(Recycler)
	}
	var sc pipeScratch
	err = n.stream(func(c *columnar.Chunk) error {
		sc.owned = sc.owned[:0]
		out, err := applyStages(c, n.stages, &sc, pool)
		if err != nil {
			return err
		}
		done, err := sk.add(out, sc.owned)
		if done && rec != nil {
			rec.Recycle(c)
		}
		return err
	})
	if err != nil && !errors.Is(err, errStopPipeline) {
		return err
	}
	n.out, err = sk.finalize()
	return err
}

// stream yields the node's input morsels in order: the upstream breaker's
// materialized chunk, or the scan.
func (n *pnode) stream(yield func(*columnar.Chunk) error) error {
	if n.input != nil {
		return yield(n.input.out)
	}
	if n.scan.Filter != nil {
		if fs, ok := n.src.(FilterableSource); ok {
			return fs.ScanFiltered(n.scan.Projection, n.scan.Prune, n.scan.Filter, yield)
		}
	}
	return n.src.Scan(n.scan.Projection, n.scan.Prune, yield)
}

// applyStages runs a morsel through the pipeline's stages: the shared
// applyFilter kernel for filter stages, vectorized expression evaluation
// for projections, and hash-table probe with selection-vector gather for
// joins. Gathered outputs are allocated from pool when non-nil (appended
// to sc.owned for the caller to recycle once the morsel is consumed).
func applyStages(c *columnar.Chunk, stages []stage, sc *pipeScratch, pool *columnar.Pool) (*columnar.Chunk, error) {
	for i := range stages {
		st := &stages[i]
		switch {
		case st.filter != nil:
			fc, s, pooled, err := applyFilter(c, st.filter, sc.sel, pool)
			if err != nil {
				return nil, err
			}
			c, sc.sel = fc, s
			if pooled {
				sc.owned = append(sc.owned, fc)
			}
		case st.probe != nil:
			ps := st.probe
			sc.lsel, sc.rsel = ps.table.probeChunk(c, ps.leftKeyIdx, sc.lsel[:0], sc.rsel[:0])
			var out *columnar.Chunk
			if pool != nil {
				out = pool.GetChunk(ps.outSchema, len(sc.lsel))
				sc.owned = append(sc.owned, out)
			} else {
				out = columnar.NewChunk(ps.outSchema, len(sc.lsel))
			}
			for j := 0; j < ps.nLeft; j++ {
				out.Columns[j].AppendGather(c.Columns[j], sc.lsel)
			}
			build := ps.table.build
			for oj, bj := range ps.rightCols {
				out.Columns[ps.nLeft+oj].AppendGather(build.Columns[bj], sc.rsel)
			}
			c = out
		default:
			out := &columnar.Chunk{Schema: st.schema}
			for _, e := range st.exprs {
				v, err := e.Eval(c, pool)
				if err != nil {
					return nil, err
				}
				out.Columns = append(out.Columns, v)
			}
			c = out
		}
	}
	return c, nil
}

// errStopPipeline is a limited collect's early-exit signal: stop the scan,
// no error.
var errStopPipeline = errors.New("engine: pipeline satisfied")

// sink materializes one pipeline's breaker.
type sink interface {
	// add consumes the stage output of the next morsel. owned are the pooled
	// chunks backing it: a sink that fully consumes the morsel recycles them
	// into its pool before returning, and reports it done — it never reads the
	// morsel again, so its source may have it back.
	add(c *columnar.Chunk, owned []*columnar.Chunk) (done bool, err error)
	finalize() (*columnar.Chunk, error)
}

// newSink builds the node's sink; the returned pool is non-nil only for
// sinks that consume morsels at the breaker (safe to recycle into).
func newSink(n *pnode) (sink, *columnar.Pool, error) {
	if n.agg == nil {
		return &collectSink{schema: n.outSchema, keys: n.keys, limit: n.limit, counted: n.counted()}, nil, nil
	}
	master, err := newAggBuilder(n.agg, n.aggIn)
	if err != nil {
		return nil, nil, err
	}
	partial, _ := newAggBuilder(n.agg, n.aggIn) // master passed the same checks
	pool := columnar.NewPool()
	return &aggSink{out: n.outSchema, pool: pool, master: master, partial: partial}, pool, nil
}

// counted returns the rows a collect pipeline streams when it keeps every
// row its scan yields — no limit, no scan filter, no filter or probe stage,
// no upstream breaker — and its source both counts them within its bound
// (RowCounter) and takes its morsels back (Recycler); -1 otherwise.
func (n *pnode) counted() int {
	rc, counts := n.src.(RowCounter)
	_, recycles := n.src.(Recycler)
	if n.limit >= 0 || n.input != nil || n.scan.Filter != nil || !counts || !recycles {
		return -1
	}
	for _, st := range n.stages {
		if st.filter != nil || st.probe != nil {
			return -1
		}
	}
	if rows, ok := rc.Rows(n.scan.Prune, n.outSchema.Width()); ok {
		return int(rows)
	}
	return -1
}

// collectSink materializes the stream, writing each row it keeps at most
// once. Without sort keys it keeps arrival order: a lone morsel kept whole is
// the output as it is, and otherwise the rows kept are concatenated into one
// chunk of their count; a limit stops the scan once that many rows arrived.
// With sort keys it keeps the morsels as they arrived, stable-sorts an index
// of their rows, and gathers the first limit rows of it into an output of
// exactly their count. A counted stream (pnode.counted) is instead copied
// into one chunk of its count as it arrives, each morsel then done with; that
// chunk is the output, or the one morsel a sort gathers from.
type collectSink struct {
	schema  *columnar.Schema
	keys    []sortKey // none: arrival order
	limit   int       // rows kept; -1: all
	counted int       // the rows a counted stream yields; -1: not counted
	chunks  []*columnar.Chunk
	rows    int             // rows arrived
	out     *columnar.Chunk // a counted stream's output, once a morsel arrived
}

func (s *collectSink) add(c *columnar.Chunk, _ []*columnar.Chunk) (bool, error) {
	s.rows += c.NumRows()
	if s.counted < 0 {
		s.chunks = append(s.chunks, c)
		if s.keys == nil && s.limit >= 0 && s.rows >= s.limit {
			return false, errStopPipeline
		}
		return false, nil
	}
	if s.out == nil {
		s.out = columnar.NewChunk(s.schema, s.counted)
		s.chunks = append(s.chunks, s.out)
	}
	s.out.AppendChunk(c)
	return true, nil
}

func (s *collectSink) finalize() (*columnar.Chunk, error) {
	keep := s.rows
	if s.limit >= 0 {
		keep = min(keep, s.limit)
	}
	switch {
	case s.keys != nil:
		return s.sorted(keep), nil
	case len(s.chunks) == 0:
		return columnar.NewChunk(s.schema, 0), nil
	case len(s.chunks) == 1 && keep == s.rows:
		return &columnar.Chunk{Schema: s.schema, Columns: s.chunks[0].Columns}, nil
	}
	out := columnar.NewChunk(s.schema, keep)
	for _, c := range s.chunks {
		k := min(c.NumRows(), keep-out.NumRows())
		for j, col := range out.Columns {
			col.AppendRange(c.Columns[j], 0, k)
		}
	}
	return out, nil
}

// rowRef is row r of morsel m.
type rowRef struct{ m, r int32 }

// sorted orders the rows arrived by the keys, stable, and gathers the first
// keep of them, each once, into an output of their count.
func (s *collectSink) sorted(keep int) *columnar.Chunk {
	idx := make([]rowRef, 0, s.rows)
	for m, c := range s.chunks {
		for r := range c.NumRows() {
			idx = append(idx, rowRef{int32(m), int32(r)})
		}
	}
	slices.SortStableFunc(idx, s.compare)
	out := columnar.NewChunk(s.schema, keep)
	for _, x := range idx[:keep] {
		for j, col := range out.Columns {
			col.AppendRange(s.chunks[x.m].Columns[j], int(x.r), int(x.r)+1)
		}
	}
	return out
}

// compare orders rows a and b by the keys, each compared in its own type:
// BIGINT as int64 (a float64 comparison would collapse neighbouring keys
// beyond 2^53), DOUBLE as float64, BOOLEAN as false < true. A DESC key puts
// b first whenever a is not less; rows equal on every key keep their order.
func (s *collectSink) compare(a, b rowRef) int {
	for _, k := range s.keys {
		va, vb := s.chunks[a.m].Columns[k.col], s.chunks[b.m].Columns[k.col]
		var eq, less bool
		switch va.Type {
		case columnar.Int64:
			x, y := va.Int64s[a.r], vb.Int64s[b.r]
			eq, less = x == y, x < y
		case columnar.Float64:
			x, y := va.Float64s[a.r], vb.Float64s[b.r]
			eq, less = x == y, x < y
		default:
			x, y := va.Bools[a.r], vb.Bools[b.r]
			eq, less = x == y, !x
		}
		switch {
		case eq:
		case less != k.desc:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// aggSink is the aggregation breaker: every morsel is folded into a partial
// hash table of its own — one builder, reset for each morsel — which merges
// into the master table in arrival order, so the master's groups are in
// first-seen (morsel, row) order.
type aggSink struct {
	out  *columnar.Schema
	pool *columnar.Pool

	master  *aggBuilder
	partial *aggBuilder // reset for every morsel
}

func (s *aggSink) add(c *columnar.Chunk, owned []*columnar.Chunk) (bool, error) {
	b := s.partial
	b.reset()
	if err := b.addChunk(c, s.pool); err != nil {
		return false, err
	}
	if err := s.master.mergeFrom(b); err != nil {
		return false, err
	}
	// The morsel is folded into its hash table: the breaker is the recycle
	// point for every pool chunk this morsel produced (addChunk has already
	// handed back its argument vectors).
	for _, oc := range owned {
		s.pool.PutChunk(oc)
	}
	return true, nil
}

func (s *aggSink) finalize() (*columnar.Chunk, error) {
	return s.master.finalize(s.out)
}
