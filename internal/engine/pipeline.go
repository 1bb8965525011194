package engine

// This file is the executor behind Execute. A planner pass (compileGraph)
// decomposes any plan into a DAG of pipelines, each a streamable chain — a
// scan source (or the materialized output of an upstream pipeline) followed
// by fused filter/projection/join-probe stages — terminated by a breaker
// sink:
//
//	collect    materialize the stream in arrival order, each row written
//	           at most once (also the join build side and the query result)
//	aggregate  group-by, one accumulator per aggregate in its argument's
//	           type (a partial aggBuilder per morsel, reset and reused,
//	           folded into the master table in arrival order); one with an
//	           AVG runs as SplitAggregate's final over its partial
//	sort       collect, then sortChunk
//	limit      stream until N rows arrived, then cancel the scan (limit
//	           pushdown into the sink)
//
// compileGraph appends every pipeline after the ones it depends on: a
// join's build pipeline completes (and its hash table seals) before the
// probe pipeline starts; a breaker's output node completes before the
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
// there too, when the source is a Recycler — and at a collect or sort whose
// stream was counted (see collectSink), once the morsel is copied into the
// exact-size output. No other sink pools or recycles: each keeps its chunks.

import (
	"errors"
	"fmt"
	"slices"

	"lambada/internal/columnar"
)

// sinkKind names a pipeline breaker.
type sinkKind uint8

const (
	sinkCollect sinkKind = iota
	sinkAgg
	sinkSort
	sinkLimit
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

// pnode is one pipeline of the graph: source, fused stages, breaker sink.
type pnode struct {
	// Source: either a scan ...
	scan *ScanPlan
	src  Source
	// ... or the materialized output of an upstream breaker.
	input *pnode

	stages []stage

	sink      sinkKind
	agg       *AggregatePlan   // sinkAgg
	aggIn     *columnar.Schema // aggregate input schema
	keys      []OrderKey       // sinkSort
	limit     int              // sinkLimit
	outSchema *columnar.Schema

	out *columnar.Chunk // materialized result, set when the node completes
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
// output equals the subplan's result; an aggregate with an AVG as splitLocal's.
func (g *graph) node(p Plan) (*pnode, error) {
	if a, ok := p.(*AggregatePlan); ok && slices.ContainsFunc(a.Aggs, func(s AggSpec) bool { return s.Func == AggAvg }) {
		final, err := splitLocal(a)
		if err != nil {
			return nil, err
		}
		return g.node(final)
	}
	n := &pnode{sink: sinkCollect, limit: -1}
	chainIn := p
	switch t := p.(type) {
	case *AggregatePlan:
		n.sink, n.agg, chainIn = sinkAgg, t, t.In
		in, err := t.In.OutSchema()
		if err != nil {
			return nil, err
		}
		n.aggIn = in
	case *OrderByPlan:
		n.sink, n.keys, chainIn = sinkSort, t.Keys, t.In
	case *LimitPlan:
		n.sink, n.limit, chainIn = sinkLimit, t.N, t.In
	}
	schema, err := p.OutSchema()
	if err != nil {
		return nil, err
	}
	n.outSchema = schema
	if err := g.chain(chainIn, n); err != nil {
		return nil, err
	}
	g.nodes = append(g.nodes, n)
	return n, nil
}

// chain compiles the streamable operator chain below a sink: it walks down
// through Filter/Project/Join nodes to the pipeline's source (a scan, or a
// nested breaker that becomes an input node), then records the stages in
// execution order. Join probe sides continue the chain; build sides become
// nodes of their own, compiled (and so run) first.
func (g *graph) chain(p Plan, n *pnode) error {
	var ops []Plan
	cur := p
walk:
	for {
		switch t := cur.(type) {
		case *ScanPlan:
			src := g.cat[t.Table]
			if src == nil {
				return fmt.Errorf("engine: unknown table %q", t.Table)
			}
			n.scan, n.src = t, src
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
				return err
			}
			n.input = sub
			break walk
		default:
			return fmt.Errorf("engine: unknown plan node %T", cur)
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
			schema, err := op.OutSchema()
			if err != nil {
				return err
			}
			n.stages = append(n.stages, stage{exprs: op.Exprs, schema: schema})
		case *JoinPlan:
			ps, err := g.probeStage(op)
			if err != nil {
				return err
			}
			n.stages = append(n.stages, stage{probe: ps})
		}
	}
	return nil
}

// probeStage compiles a join: the build side becomes its own (collect)
// pipeline, the probe metadata is precomputed against the resolved schemas.
func (g *graph) probeStage(j *JoinPlan) (*probeStage, error) {
	outSchema, err := j.OutSchema() // validates key lists and types
	if err != nil {
		return nil, err
	}
	ls, err := j.Left.OutSchema()
	if err != nil {
		return nil, err
	}
	rs, err := j.Right.OutSchema()
	if err != nil {
		return nil, err
	}
	lk, rk := j.LeftKeys, j.RightKeys
	ps := &probeStage{outSchema: outSchema, nLeft: ls.Len()}
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
	build, err := g.node(j.Right)
	if err != nil {
		return nil, err
	}
	ps.build = build
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

// errStopPipeline is the limit sink's early-exit signal: stop the scan, no
// error.
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
	switch n.sink {
	case sinkAgg:
		master, err := newAggBuilder(n.agg, n.aggIn)
		if err != nil {
			return nil, nil, err
		}
		partial, _ := newAggBuilder(n.agg, n.aggIn) // master passed the same checks
		pool := columnar.NewPool()
		return &aggSink{out: n.outSchema, pool: pool, master: master, partial: partial}, pool, nil
	case sinkSort:
		return &sortSink{collectSink: collectSink{schema: n.outSchema, counted: n.counted()}, keys: n.keys}, nil, nil
	case sinkLimit:
		return &limitSink{schema: n.outSchema, n: n.limit}, nil, nil
	default:
		return &collectSink{schema: n.outSchema, counted: n.counted()}, nil, nil
	}
}

// counted returns the rows a collect pipeline streams when it keeps every
// row its scan yields — no scan filter, no filter or probe stage, no upstream
// breaker — and its source both counts them within its bound (RowCounter)
// and takes its morsels back (Recycler); -1 otherwise.
func (n *pnode) counted() int {
	rc, counts := n.src.(RowCounter)
	_, recycles := n.src.(Recycler)
	if n.input != nil || n.scan.Filter != nil || !counts || !recycles {
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

// collectSink materializes the stream in arrival order, writing each row at
// most once: a lone morsel is the output as it is, and several are
// concatenated into one chunk of their summed rows. A counted stream
// (pnode.counted) is instead copied into one output of its count as it
// arrives, each morsel then done with.
type collectSink struct {
	schema  *columnar.Schema
	counted int // the rows a counted stream yields; -1: not counted
	chunks  []*columnar.Chunk
	out     *columnar.Chunk // a counted stream's output, once a morsel arrived
}

func (s *collectSink) add(c *columnar.Chunk, _ []*columnar.Chunk) (bool, error) {
	if s.counted < 0 {
		s.chunks = append(s.chunks, c)
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
	switch len(s.chunks) {
	case 0:
		return columnar.NewChunk(s.schema, 0), nil
	case 1:
		return &columnar.Chunk{Schema: s.schema, Columns: s.chunks[0].Columns}, nil
	}
	rows := 0
	for _, c := range s.chunks {
		rows += c.NumRows()
	}
	out := columnar.NewChunk(s.schema, rows)
	for _, c := range s.chunks {
		out.AppendChunk(c)
	}
	return out, nil
}

// sortSink collects, then sorts.
type sortSink struct {
	collectSink
	keys []OrderKey
}

func (s *sortSink) finalize() (*columnar.Chunk, error) {
	in, err := s.collectSink.finalize()
	if err != nil {
		return nil, err
	}
	return sortChunk(in, s.keys)
}

// limitSink streams until N rows arrived, then stops the pipeline — a scan
// feeding only a LIMIT reads just enough morsels instead of materializing
// its whole input.
type limitSink struct {
	schema *columnar.Schema
	n      int
	got    int
	prefix []*columnar.Chunk
}

func (s *limitSink) add(c *columnar.Chunk, _ []*columnar.Chunk) (bool, error) {
	s.prefix = append(s.prefix, c)
	if s.got += c.NumRows(); s.got >= s.n {
		return false, errStopPipeline
	}
	return false, nil
}

// finalize copies the first N rows into an output of exactly their count.
func (s *limitSink) finalize() (*columnar.Chunk, error) {
	left := s.n
	out := columnar.NewChunk(s.schema, min(s.got, left))
	for _, c := range s.prefix {
		k := min(c.NumRows(), left)
		for j, col := range out.Columns {
			col.AppendRange(c.Columns[j], 0, k)
		}
		left -= k
	}
	return out, nil
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
