// Package stageplan decomposes an optimized engine plan into a DAG of
// stages connected by exchange boundaries — the distributed planning layer
// that lets query shapes the driver cannot broadcast (joins with two large
// sides, high-cardinality group-bys) flow through the purpose-built S3
// exchange (§4.4) end-to-end:
//
//   - scan stages read a base table's lpq files and hash-partition their
//     output on the downstream join keys through the exchange;
//   - join stages run one worker per partition pair: worker p collects
//     partition p of both sides, builds the hash table on the build side
//     and probes with the other — no worker ever sees a whole table;
//   - grouped aggregations split into a partial aggregate in the stage
//     producing the rows and a merge: on the driver (§3.2) when the footers
//     bound what the producing fleet sends back — groups × workers — to
//     DefaultBroadcastRowLimit rows, else in a final merge stage fed by a
//     repartition on the group keys, never funnelled through the driver.
//
// Joins whose build side is genuinely small (by lpq footer row counts) stay
// broadcast joins inside their probe side's stage — the planner chooses
// broadcast-vs-shuffle per join.
//
// The DAG Decompose returns is the whole of what runs: every stage's fleet
// size, every boundary's exchange algorithm (ChooseVariant over the producing
// fleet, the fan-in and the installation's exchange.ShardBuckets), and, for a
// multi-level boundary, its regroup round as a plan-less stage of its own
// right behind the producer, which the boundary's consumers wait on. The
// driver runs the DAG as given on its stage scheduler with seal/ready
// barriers (SQS completion messages, DynamoDB ready markers); every stage
// fragment is an ordinary engine plan run by engine.Execute, so results are
// byte-identical to single-node execution at any worker/partition count.
package stageplan

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/obs"
)

// Fingerprint returns a stable identity for a logical plan — the FNV-64a
// hash of its canonical JSON encoding. Two plans with the same fingerprint
// compute the same result over the same table data, which makes the
// fingerprint the plan half of a (plan, table files) result-cache key.
// Callers must fingerprint the plan before Decompose mutates it.
func Fingerprint(p engine.Plan) (string, error) {
	b, err := engine.MarshalPlan(p)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Output is a stage's exchange boundary: its result rows are hash-
// partitioned on Keys into Partitions partitions. The JSON tags, and
// Input's, are the wire form of a worker's payload (worker.Boundary).
type Output struct {
	// Keys are the partition key columns (all Int64), hash-combined.
	Keys []string `json:"keys"`
	// Partitions is the consuming stage's worker count.
	Partitions int `json:"partitions"`
	// Variant is the boundary's exchange algorithm, chosen by Decompose from
	// the analytic request model (ChooseVariant) over the producing fleet.
	Variant exchange.Variant `json:"variant,omitempty"`
}

// Input binds one upstream stage's boundary into a stage's catalog.
type Input struct {
	// StageID is the producing stage.
	StageID int `json:"stageId"`
	// Table is the catalog name the fragment scans the partition under.
	Table string `json:"table"`
	// Ready is the stage whose seal gates the collect: the producer of a
	// single-round boundary, the regroup stage of a multi-level one — the
	// objects a consumer reads exist only once it sealed.
	Ready int `json:"ready"`
	// Senders is the producer's worker count, and Variant the exchange
	// algorithm its senders wrote with, which the collector reads with.
	Senders int              `json:"senders"`
	Variant exchange.Variant `json:"inVariant"`
}

// Stage is one gang-scheduled fleet of a distributed plan.
type Stage struct {
	ID int
	// Plan is the engine fragment every worker of the stage executes; nil
	// for a regroup stage (RegroupOf).
	Plan engine.Plan
	// Table is the base S3 table the stage scans ("" for exchange-fed
	// stages, whose inputs come from upstream boundaries instead).
	Table string
	// Workers is the fleet size: ⌈files / F⌉ for a scan stage (Stats.Workers),
	// the boundary fan-in for an exchange-fed one, exchange.Groups(P) for a
	// regroup stage.
	Workers int
	// Inputs are the exchange boundaries the stage consumes; worker p
	// collects partition p of each.
	Inputs []Input
	// Output is the boundary the stage produces (nil: results go to the
	// driver through the SQS result queue).
	Output *Output
	// DependsOn lists the stage IDs whose boundaries this stage consumes,
	// and their regroup stages. Their launch gates this stage's launch — the
	// driver's scheduler invokes a stage once every stage it depends on has
	// its whole fleet invoked, so its cold starts overlap upstream execution
	// — and their seal gates its collect: a worker reads a boundary only once
	// its Input.Ready stage's DynamoDB ready marker is there.
	DependsOn []int
}

// RegroupOf reports whether s is a regroup stage — the only plan-less kind,
// the intermediate round of a multi-level boundary (§4.4.2) — and whose.
func (s *Stage) RegroupOf() (producer int, ok bool) {
	if s.Plan != nil {
		return 0, false
	}
	return s.Inputs[0].StageID, true
}

// Plan is a stage-decomposed distributed plan.
type Plan struct {
	// Stages in topological order — producers precede consumers, a regroup
	// stage right behind its producer — which is the driver's launch order.
	Stages []*Stage
	// Driver is the driver-side merge scope; its scan of
	// engine.WorkerResultTable binds to the result stage's collected
	// outputs (ordered by worker ID).
	Driver engine.Plan
	// Merge says where the plan's aggregate merges its partials and from
	// which numbers that was decided ("" without an aggregate) — for Explain.
	Merge string
}

// ResultStage returns the stage whose output feeds the driver scope.
func (p *Plan) ResultStage() *Stage {
	for _, s := range p.Stages {
		if s.Output == nil {
			return s
		}
	}
	return nil
}

// Stats carries the planner's cost inputs.
type Stats struct {
	// Rows is the per-table row estimate, summed from the lpq file footers
	// at plan time (a driver-side metadata read, no data scanned). For
	// tables scanned with pushed-down predicates this is the page-granular
	// pruning bound (lpq.EstimateRows) — post-filter, so autotuned fan-in
	// tracks the selective workload; for unfiltered scans it is the exact
	// total row count.
	Rows map[string]int64
	// Workers is each scanned table's fleet: ⌈files / FilesPerWorker⌉ over the
	// files the predicates did not prune. It is the Workers of the table's
	// scan stage (1 for a table missing here), and so what the aggregate's
	// merge choice and the stage's boundary variant are decided from.
	Workers map[string]int
	// Bounds answers with the smallest and largest value the footers record
	// for an Int64 column of a table. Nil, or !ok, is an unknown bound.
	Bounds func(table, column string) (lo, hi int64, ok bool)
}

// Config tunes the decomposition.
type Config struct {
	// Partitions is the fan-in of every exchange boundary: join and final-
	// aggregation stages run this many workers. 0 derives the fan-in from
	// the lpq footer row counts in Stats: ceil(largest table rows /
	// AutoRowsPerPartition), clamped to [1, MaxAutoPartitions].
	Partitions int
	// BroadcastRowLimit: a join build side of at most this many rows stays
	// a broadcast join (0 = 65536; negative = never broadcast).
	BroadcastRowLimit int64
	// Exchange is the base of every boundary's variant: WriteCombining is
	// inherited, Levels pins the round count (1 or 2; 0 leaves it to
	// ChooseVariant), Buckets is ignored — ChooseVariant picks it.
	Exchange exchange.Variant
}

// DefaultBroadcastRowLimit is the build-side row count up to which every
// worker reading the whole table beats a shuffle.
const DefaultBroadcastRowLimit = 1 << 16

// Partition autotuning (Config.Partitions = 0): each boundary partition
// targets AutoRowsPerPartition input rows — enough work to amortize a
// worker's cold start and per-partition exchange requests, small enough
// that a partition pair of a join fits a Lambda-sized memory budget.
const (
	AutoRowsPerPartition = 1 << 16
	// MaxAutoPartitions caps the derived fan-in: boundary request counts
	// grow with S×P, so wide fan-ins must be asked for explicitly
	// (Config.Partitions).
	MaxAutoPartitions = 32
)

// partitions resolves the boundary fan-in, deriving it from the row stats
// when unset.
func (c Config) partitions(stats Stats) int {
	if c.Partitions > 0 {
		return c.Partitions
	}
	var largest int64
	for _, rows := range stats.Rows {
		largest = max(largest, rows)
	}
	if largest <= 0 {
		return 4
	}
	return int(min((largest+AutoRowsPerPartition-1)/AutoRowsPerPartition, MaxAutoPartitions))
}

// MinMultiLevelPartitions is the fan-in floor below which ChooseVariant
// keeps a boundary single-round regardless of raw request arithmetic. The
// regroup round adds a whole extra fleet of Groups(P) workers plus one
// round of S3 latency to the critical path; below this fan-in the absolute
// request savings are cents-invisible while the latency cost is not, and
// small deterministic test fixtures should not flip algorithms when a row
// estimate wiggles.
const MinMultiLevelPartitions = 32

// ChooseVariant resolves one stage boundary's exchange algorithm from the
// analytic request model of the boundaries the driver seals
// (exchange.Variant.SealedRequests). forceLevels pins the round count (1 or
// 2) when the user forced it (Config.Exchange.Levels); 0 lets the model
// decide: multi-level is chosen only when the fan-in reaches
// MinMultiLevelPartitions and the billed-request savings exceed the regroup
// fleet's own cost (Groups(P) extra invocations priced at Lambda rates).
// Write combining is inherited from base — it is strictly fewer requests —
// unless the variant is inadmissible: its worst-case manifest
// (Variant.ManifestBytes) would not fit one DynamoDB item, so the ready
// marker could not be written. That round count then runs basic.
func ChooseVariant(senders, partitions, buckets int, base exchange.Variant, forceLevels int) exchange.Variant {
	single := admissible(exchange.Variant{Levels: 1, WriteCombining: base.WriteCombining}, senders, partitions)
	multi := admissible(exchange.Variant{Levels: 2, WriteCombining: base.WriteCombining}, senders, partitions)
	single.Buckets = chooseShards(single, senders, partitions, buckets)
	multi.Buckets = chooseShards(multi, senders, partitions, buckets)
	switch {
	case forceLevels == 1:
		return single
	case forceLevels >= 2:
		return multi
	}
	if partitions < MinMultiLevelPartitions || senders < 1 {
		return single
	}
	costSingle := single.SealedRequests(senders, partitions).Cost()
	costMulti := multi.SealedRequests(senders, partitions).Cost() +
		pricing.USD(exchange.Groups(partitions))*regroupWorkerOverhead()
	if costMulti < costSingle {
		return multi
	}
	return single
}

// admissible returns v, or v without write combining when its worst-case
// manifest exceeds DynamoDB's item limit.
func admissible(v exchange.Variant, senders, partitions int) exchange.Variant {
	if v.WriteCombining && v.ManifestBytes(senders, partitions) > dynamo.MaxItemBytes {
		v.WriteCombining = false
	}
	return v
}

// MaxBucketRoundRequests is the request budget one exchange round may put on
// a single shard bucket, for its writes and for its reads separately — buckets
// exist only to stay under S3's two per-prefix rate ceilings (§4.4.1: ~5500
// reads/s, 3500 writes/s per prefix), so the budget sits safely below both.
// A boundary over b buckets and k rounds fits when its exact request counts
// (Variant.SealedRequests) satisfy max(Puts, Gets) ≤ b·k·MaxBucketRoundRequests.
// A bucket past that point buys nothing.
const MaxBucketRoundRequests = 3000

// chooseShards returns the smallest shard-bucket count b in [1, pool) under
// which the boundary's exact billed requests fit the budget: max(Puts, Gets)
// of v.SealedRequests(senders, partitions) at most b · v.Levels ·
// MaxBucketRoundRequests — writes and reads checked apart, because S3's
// ceilings are, and divided over v.Levels because the requests are spread
// over that many rounds. It returns 0, the whole pool, when no such b exists.
func chooseShards(v exchange.Variant, senders, partitions, pool int) int {
	rc := v.SealedRequests(senders, partitions)
	for b := 1; b < pool; b++ {
		if max(rc.Puts, rc.Gets) <= int64(b*v.Levels*MaxBucketRoundRequests) {
			return b
		}
	}
	return 0
}

// regroupWorkerOverhead prices one regroup worker's non-S3 footprint — its
// invocation, a conservative half second of 1.75 GiB Lambda duration, and
// its SQS result message — so boundaries only go multi-level when request
// savings actually pay for the extra fleet.
func regroupWorkerOverhead() pricing.USD {
	return pricing.Price(obs.Cost{
		LambdaInvokes: 1,
		LambdaMiBNs:   1792 * int64(time.Second/2),
		SQSRequests:   1,
	})
}

func (c Config) broadcastLimit() int64 {
	switch {
	case c.BroadcastRowLimit < 0:
		return 0
	case c.BroadcastRowLimit == 0:
		return DefaultBroadcastRowLimit
	default:
		return c.BroadcastRowLimit
	}
}

// InputTable names the catalog binding of a stage's boundary in consuming
// fragments.
func InputTable(stageID int) string { return fmt.Sprintf("__stage%d", stageID) }

type compiler struct {
	cfg    Config
	stats  Stats
	parts  int // resolved boundary fan-in (explicit or autotuned)
	stages []*Stage
	nextID int
}

// Decompose converts an optimized, resolved plan into the stage DAG the
// driver runs, every fleet sized and every boundary resolved. The plan must
// come out of engine.Optimize against a catalog holding every base table;
// stats supplies the per-table row counts the broadcast-vs-shuffle choice is
// made from, and the scan fleets.
//
// Decompose takes ownership of p and rewrites it in place (join sides may
// swap, shuffle joins are rebound to boundary scans) — like Optimize, it is
// a one-way pass. Callers wanting a single-node reference must build the
// plan twice, not reuse p afterwards.
func Decompose(p engine.Plan, stats Stats, cfg Config) (*Plan, error) {
	c := &compiler{cfg: cfg, stats: stats, parts: cfg.partitions(stats)}

	// Peel the driver-only tail (OrderBy, Limit) and an optional top-level
	// projection.
	var tail []engine.Plan
	cur := p
	for {
		switch n := cur.(type) {
		case *engine.OrderByPlan:
			tail = append(tail, n)
			cur = n.In
			continue
		case *engine.LimitPlan:
			tail = append(tail, n)
			cur = n.In
			continue
		}
		break
	}
	var topProject *engine.ProjectPlan
	var agg *engine.AggregatePlan
	switch n := cur.(type) {
	case *engine.ProjectPlan:
		if a, ok := n.In.(*engine.AggregatePlan); ok {
			topProject, agg, cur = n, a, a.In
		} else {
			topProject, cur = n, n.In
		}
	case *engine.AggregatePlan:
		agg, cur = n, n.In
	}

	// The group bound reads the base tables under the keys, so it is taken
	// before build rebinds shuffle joins to their boundaries.
	groups, unbounded := int64(1), ""
	if agg != nil {
		groups, unbounded = c.groupBound(cur, agg.GroupBy)
	}

	// Compile the row source (scan chains and the join tree) into stages.
	rowStage, err := c.build(cur)
	if err != nil {
		return nil, err
	}

	out := &Plan{}
	var driver engine.Plan
	switch {
	case agg != nil:
		agg.In = rowStage.Plan // the row source as compiled: its joins rebound or unswapped
		partial, final, err := engine.SplitAggregate(agg)
		if err != nil {
			return nil, err
		}
		rowStage.Plan = partial
		ps, err := partial.OutSchema()
		if err != nil {
			return nil, err
		}
		driver = final
		if topProject != nil {
			driver = &engine.ProjectPlan{In: final, Exprs: topProject.Exprs, Names: topProject.Names}
		}
		// Every worker of the producing fleet sends back at most one partial
		// row per group: where the footers bound that (a global aggregate is
		// one group), the driver merges them, as §3.2 has it.
		fleet := int64(rowStage.Workers)
		switch {
		case len(agg.GroupBy) == 0 || unbounded == "" && groups*fleet <= DefaultBroadcastRowLimit:
			out.Merge = fmt.Sprintf("driver (≤ %d groups × %d workers)", groups, fleet)
		case !intKeys(ps, agg.GroupBy):
			out.Merge = "driver (keys not hashable)"
		default:
			// Repartition the partials on the group keys; one final-merge
			// worker per partition owns every group hashing to it.
			if unbounded == "" {
				unbounded = fmt.Sprintf("≤ %d groups × %d workers", groups, fleet)
			}
			out.Merge = fmt.Sprintf("repartition ×%d (%s)", c.parts, unbounded)
			rowStage.Output = &Output{Keys: agg.GroupBy, Partitions: c.parts}
			inTable := InputTable(rowStage.ID)
			rebindScan(driver, engine.WorkerResultTable, inTable)
			c.stages = append(c.stages, &Stage{
				ID:        c.id(),
				Plan:      driver,
				Workers:   c.parts,
				Inputs:    []Input{{StageID: rowStage.ID, Table: inTable}},
				DependsOn: []int{rowStage.ID},
			})
			fs, err := driver.OutSchema()
			if err != nil {
				return nil, err
			}
			driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: fs}
		}
	case topProject != nil:
		topProject.In = rowStage.Plan
		rowStage.Plan = topProject
		ts, err := topProject.OutSchema()
		if err != nil {
			return nil, err
		}
		driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: ts}
	default:
		rs, err := rowStage.Plan.OutSchema()
		if err != nil {
			return nil, err
		}
		driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: rs}
	}

	for i := len(tail) - 1; i >= 0; i-- {
		switch t := tail[i].(type) {
		case *engine.OrderByPlan:
			driver = &engine.OrderByPlan{In: driver, Keys: t.Keys}
		case *engine.LimitPlan:
			driver = &engine.LimitPlan{In: driver, N: t.N}
		}
	}

	out.Stages, out.Driver = c.boundaries(), driver
	return out, nil
}

// boundaries resolves every boundary's exchange algorithm from its producing
// fleet, completes every input with its producer's fleet size and variant,
// and gives each multi-level boundary its regroup stage: right behind the
// producer, with the next free ID, so the planner's stages keep theirs and
// their order. The boundary's consumers depend on the regroup stage too, and
// wait for its seal, not the producer's, before they collect.
func (c *compiler) boundaries() []*Stage {
	stages := make([]*Stage, 0, len(c.stages))
	ready := map[int]Input{} // producer → how its consumers read it: the stage whose seal makes it readable, its senders and variant
	for _, st := range c.stages {
		stages = append(stages, st)
		for i, in := range st.Inputs {
			st.Inputs[i] = ready[in.StageID]
			st.Inputs[i].Table = in.Table
			if r := st.Inputs[i].Ready; r != in.StageID {
				st.DependsOn = append(st.DependsOn, r)
			}
		}
		out := st.Output
		if out == nil {
			continue
		}
		out.Variant = ChooseVariant(st.Workers, out.Partitions, exchange.ShardBuckets, c.cfg.Exchange, c.cfg.Exchange.Levels)
		in := Input{StageID: st.ID, Ready: st.ID, Senders: st.Workers, Variant: out.Variant}
		if out.Variant.Levels >= 2 {
			rg := &Stage{ID: c.id(), Workers: exchange.Groups(out.Partitions), Output: out,
				Inputs: []Input{in}, DependsOn: []int{st.ID}}
			in.Ready = rg.ID
			stages = append(stages, rg)
		}
		ready[st.ID] = in
	}
	return stages
}

// groupBound bounds the groups of an aggregate over p by the product of its
// keys' value ranges, max − min + 1 each, from the footers of the base column
// a key copies. unbounded names the first key without such a bound, or at
// which the product passes DefaultBroadcastRowLimit.
func (c *compiler) groupBound(p engine.Plan, keys []string) (groups int64, unbounded string) {
	groups = 1
	for _, k := range keys {
		table, col, ok := origin(p, k)
		var lo, hi int64
		if ok = ok && c.stats.Bounds != nil; ok {
			lo, hi, ok = c.stats.Bounds(table, col)
		}
		if !ok {
			return 0, k + " unbounded"
		}
		n := hi - lo + 1 // ≤ 0: overflowed
		if n <= 0 || n > DefaultBroadcastRowLimit/groups {
			return 0, fmt.Sprintf("%s: over %d groups", k, DefaultBroadcastRowLimit)
		}
		groups *= n
	}
	return groups, ""
}

// origin traces an output column of p to the base-table column it copies:
// through filters, either side of a join, and projections that pass it on
// unchanged. A computed column has none.
func origin(p engine.Plan, col string) (table, column string, ok bool) {
	switch n := p.(type) {
	case *engine.ScanPlan:
		return n.Table, col, true
	case *engine.FilterPlan:
		return origin(n.In, col)
	case *engine.ProjectPlan:
		for i, name := range n.Names {
			if src, copies := n.Exprs[i].(engine.Col); copies && name == col {
				return origin(n.In, string(src))
			}
		}
	case *engine.JoinPlan:
		if ls, err := n.Left.OutSchema(); err == nil && ls.Index(col) >= 0 {
			return origin(n.Left, col)
		}
		return origin(n.Right, col)
	}
	return "", "", false
}

func (c *compiler) id() int {
	id := c.nextID
	c.nextID++
	return id
}

// build compiles a row-source subtree into its own stage (appended after
// its producers, keeping c.stages topological) and returns it, sized: a scan
// stage by its table's fleet, an exchange-fed one by the boundary fan-in.
func (c *compiler) build(p engine.Plan) (*Stage, error) {
	st := &Stage{ID: c.id()}
	frag, err := c.embed(st, p)
	if err != nil {
		return nil, err
	}
	st.Plan, st.Workers = frag, c.parts
	switch {
	case st.Table != "":
		st.Workers = max(c.stats.Workers[st.Table], 1)
	case len(st.Inputs) == 0:
		return nil, fmt.Errorf("stageplan: stage %d scans no base table and no boundary", st.ID)
	}
	c.stages = append(c.stages, st)
	return st, nil
}

// embed walks a row-source subtree, keeping streamable operators inside st
// and cutting stage boundaries at shuffle joins.
func (c *compiler) embed(st *Stage, p engine.Plan) (engine.Plan, error) {
	switch n := p.(type) {
	case *engine.ScanPlan:
		if st.Table != "" && st.Table != n.Table {
			return nil, fmt.Errorf("stageplan: stage %d scans both %q and %q — a shuffle join should have split them", st.ID, st.Table, n.Table)
		}
		st.Table = n.Table
		return n, nil
	case *engine.FilterPlan:
		in, err := c.embed(st, n.In)
		if err != nil {
			return nil, err
		}
		n.In = in
		return n, nil
	case *engine.ProjectPlan:
		in, err := c.embed(st, n.In)
		if err != nil {
			return nil, err
		}
		n.In = in
		return n, nil
	case *engine.JoinPlan:
		return c.embedJoin(st, n)
	default:
		return nil, fmt.Errorf("stageplan: cannot stage plan node %T", p)
	}
}

// embedJoin chooses broadcast or shuffle for one join. Broadcast keeps the
// join inside st, every worker of it reading the whole build side; shuffle
// materializes both sides as upstream stages partitioned on the join keys
// and rebinds the join to their boundaries.
func (c *compiler) embedJoin(st *Stage, j *engine.JoinPlan) (engine.Plan, error) {
	limit := c.cfg.broadcastLimit()

	// Prefer building on the smaller side: if only the left side is a
	// broadcastable scan, swap the sides (inner joins commute), and project
	// the swapped join back to the columns the join as written exposes.
	swapped := !c.buildable(j.Right, j.Left, limit) && c.buildable(j.Left, j.Right, limit)
	if swapped {
		j.Left, j.Right = j.Right, j.Left
		j.LeftKeys, j.RightKeys = j.RightKeys, j.LeftKeys
	}

	if c.buildable(j.Right, j.Left, limit) {
		left, err := c.embed(st, j.Left)
		if err != nil {
			return nil, err
		}
		j.Left = left
		if swapped {
			return unswap(j)
		}
		return j, nil
	}

	// Shuffle: both sides become stages partitioned on their join keys.
	parts, lk, rk := c.parts, j.LeftKeys, j.RightKeys
	ls, err := c.build(j.Left)
	if err != nil {
		return nil, err
	}
	ls.Output = &Output{Keys: lk, Partitions: parts}
	rs, err := c.build(j.Right)
	if err != nil {
		return nil, err
	}
	rs.Output = &Output{Keys: rk, Partitions: parts}
	for _, s := range []*Stage{ls, rs} {
		if err := checkKeys(s, s.Output.Keys); err != nil {
			return nil, err
		}
	}

	lt, rt := InputTable(ls.ID), InputTable(rs.ID)
	lschema, err := ls.Plan.OutSchema()
	if err != nil {
		return nil, err
	}
	rschema, err := rs.Plan.OutSchema()
	if err != nil {
		return nil, err
	}
	st.Inputs = append(st.Inputs, Input{StageID: ls.ID, Table: lt}, Input{StageID: rs.ID, Table: rt})
	st.DependsOn = append(st.DependsOn, ls.ID, rs.ID)
	return &engine.JoinPlan{
		Left:     &engine.ScanPlan{Table: lt, TableSchema: lschema},
		Right:    &engine.ScanPlan{Table: rt, TableSchema: rschema},
		LeftKeys: lk, RightKeys: rk,
	}, nil
}

// unswap projects a join whose sides embedJoin swapped onto the columns of
// the join as written: its left side's, each key read off the right key it
// equals — the swapped join drops them, as build-side keys — then its right
// side's but their keys, as a single node exposes them.
func unswap(j *engine.JoinPlan) (engine.Plan, error) {
	rightKeys, leftKeys := j.LeftKeys, j.RightKeys // the sides as written
	left, lerr := j.Right.OutSchema()
	right, rerr := j.Left.OutSchema()
	if err := errors.Join(lerr, rerr); err != nil {
		return nil, err
	}
	p := &engine.ProjectPlan{In: j}
	for _, f := range slices.Concat(left.Fields, right.Fields) {
		col := f.Name
		if i := slices.Index(leftKeys, col); i >= 0 {
			col = rightKeys[i]
		} else if slices.Contains(rightKeys, col) {
			continue
		}
		p.Exprs, p.Names = append(p.Exprs, engine.Col(col)), append(p.Names, f.Name)
	}
	return p, nil
}

// buildable reports whether build can be the build side of a broadcast join
// against probe: a bare base-table scan of at most limit rows of a table
// probe does not scan. Subtrees with joins or filters above the scan shuffle
// instead (their output size is not footer-predictable). Filtered scans are
// excluded even when the post-filter estimate is small: every worker of a
// broadcast reads the whole table, and the estimate bounds selected rows, not
// the bytes read. A table the probe side scans too — a self-join — shuffles:
// a worker gets one file list per table, its share of its stage's own table,
// so the build side could not be read whole.
func (c *compiler) buildable(build, probe engine.Plan, limit int64) bool {
	s, ok := build.(*engine.ScanPlan)
	if !ok || limit <= 0 || s.Filter != nil {
		return false
	}
	if rows, known := c.stats.Rows[s.Table]; !known || rows <= 0 || rows > limit {
		return false
	}
	probed := false
	engine.VisitScans(probe, func(p *engine.ScanPlan) { probed = probed || p.Table == s.Table })
	return !probed
}

// checkKeys validates that a boundary's partition keys exist in the stage's
// output schema as Int64 columns.
func checkKeys(s *Stage, keys []string) error {
	schema, err := s.Plan.OutSchema()
	if err != nil {
		return err
	}
	for _, k := range keys {
		i := schema.Index(k)
		if i < 0 {
			return fmt.Errorf("stageplan: stage %d partition key %q not in output schema", s.ID, k)
		}
		if schema.Fields[i].Type != columnar.Int64 {
			return fmt.Errorf("stageplan: stage %d partition key %q has type %v (only BIGINT keys are hashable)", s.ID, k, schema.Fields[i].Type)
		}
	}
	return nil
}

// intKeys reports whether every key resolves to an Int64 column of schema.
func intKeys(schema *columnar.Schema, keys []string) bool {
	for _, k := range keys {
		i := schema.Index(k)
		if i < 0 || schema.Fields[i].Type != columnar.Int64 {
			return false
		}
	}
	return true
}

// rebindScan renames every scan of table from to table to in p (the
// SplitAggregate final merge scans engine.WorkerResultTable; final stages
// bind it to their boundary's catalog name instead).
func rebindScan(p engine.Plan, from, to string) {
	engine.VisitScans(p, func(s *engine.ScanPlan) {
		if s.Table == from {
			s.Table = to
		}
	})
}

// Explain renders the stage DAG — every fleet the query runs, in launch
// order — for logs and tests.
func Explain(p *Plan) string {
	out := ""
	for _, s := range p.Stages {
		out += fmt.Sprintf("stage %d", s.ID)
		if producer, ok := s.RegroupOf(); ok {
			out += fmt.Sprintf(" regroup of %d workers=%d%s\n", producer, s.Workers, explainOutput(s.Output))
			continue
		}
		if s.Table != "" {
			out += fmt.Sprintf(" scan=%s", s.Table)
		}
		for _, in := range s.Inputs {
			out += fmt.Sprintf(" in=%d", in.StageID)
		}
		out += fmt.Sprintf(" workers=%d%s\n", s.Workers, explainOutput(s.Output)) + indent(engine.Explain(s.Plan))
	}
	out += "driver:\n" + indent(engine.Explain(p.Driver))
	if p.Merge != "" {
		out += "merge: " + p.Merge + "\n"
	}
	return out
}

func explainOutput(o *Output) string {
	if o == nil {
		return " out=driver"
	}
	b := o.Variant.Buckets
	if b == 0 {
		b = exchange.ShardBuckets
	}
	return fmt.Sprintf(" out=hash(%v)x%d %s b=%d", o.Keys, o.Partitions, o.Variant, b)
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "  " + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += "  " + s[start:]
	}
	return out
}
