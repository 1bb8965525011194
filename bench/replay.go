package main

import (
	"bytes"
	"fmt"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/scan"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// replayer measures single layers from outside: after the traced rounds it
// calls each layer's exported functions directly, single-threaded, on the
// workload's own files, plans and partition counts, on a local deployment
// (zero latencies, so the numbers are this process's CPU).
type replayer struct {
	w    *workload
	d    *deployment // local deployment holding the files
	t    tables
	res  *result
	rec  *recorder
	root int
	// repeats scales the replay loops: 1 at -scale tiny, 16 otherwise.
	repeats int
}

// timed runs fn under a replay span and returns its host cost.
func (r *replayer) timed(name string, fn func() error) (cost, error) {
	id := r.rec.start("replay."+name, r.root, 0)
	win := openWindow()
	err := fn()
	c := win.close()
	r.rec.end(id)
	if err != nil {
		err = fmt.Errorf("replay %s: %w", name, err)
	}
	return c, err
}

// serialScan is the scan operator with every concurrency level off.
func serialScan() scan.Config {
	c := scan.DefaultConfig()
	c.DoubleBuffer, c.ParallelColumns, c.MetaPrefetch, c.ParallelFiles = false, false, false, 1
	return c
}

func (r *replayer) memCatalog() engine.Catalog { return newOracle(r.t).catalog() }

func (r *replayer) scanCatalog() engine.Catalog {
	client := s3.NewClient(r.d.dep.S3, r.d.env)
	cat := engine.Catalog{}
	for name, files := range r.d.files {
		cat[name] = scan.New(client, serialScan(), files...)
	}
	return cat
}

// tableScan returns the optimizer's pushed-down scan of one table of a query.
func tableScan(sql, table string) (*engine.ScanPlan, error) {
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, err
	}
	opt, err := engine.Optimize(plan, engine.Catalog{
		"lineitem": engine.NewMemSource(tpch.Schema()), "orders": engine.NewMemSource(tpch.OrdersSchema()),
	})
	if err != nil {
		return nil, err
	}
	var sp *engine.ScanPlan
	engine.VisitScans(opt, func(s *engine.ScanPlan) {
		if s.Table == table {
			sp = s
		}
	})
	if sp == nil {
		return nil, fmt.Errorf("no %s scan in plan", table)
	}
	return sp, nil
}

func perSecond(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// run replays every layer and returns, per query type, the CPU of answering
// it on a single node straight from the files (lpq + scan + engine, no
// driver), plus the CPU of one exchange boundary at the workload's (S, P).
func (r *replayer) run() (direct map[string]time.Duration, boundary time.Duration, err error) {
	steps := []func() error{r.frontend, r.lpq, r.scan, r.engine, r.kernel}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, 0, err
		}
	}
	if direct, err = r.direct(); err != nil {
		return nil, 0, err
	}
	if r.w.parts > 0 {
		if boundary, err = r.exchange(); err != nil {
			return nil, 0, err
		}
	}
	return direct, boundary, nil
}

// mainQuery is the text the planner-side replays plan.
func (r *replayer) mainQuery() string {
	if r.w.single {
		return q1SQL
	}
	return q12Exact
}

func (r *replayer) frontend() error {
	texts := r.w.texts()
	if len(texts) > 16 {
		texts = texts[:16]
	}
	var parse []float64
	_, err := r.timed("sqlfe.parse", func() error {
		for i := 0; i < 50; i++ {
			for _, sql := range texts {
				t0 := time.Now()
				if _, err := sqlfe.Parse(sql); err != nil {
					return err
				}
				parse = append(parse, us(time.Since(t0)))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("sqlfe.parse_us", median(parse))

	stats := stageplan.Stats{Rows: map[string]int64{"lineitem": int64(r.t.li.NumRows())}}
	if r.t.ord != nil {
		stats.Rows["orders"] = int64(r.t.ord.NumRows())
	}
	cfg := stageplan.Config{Partitions: r.w.parts, BroadcastRowLimit: r.w.broadcast}
	var decompose, fingerprint []float64
	stages := 0
	_, err = r.timed("stageplan.decompose", func() error {
		for i := 0; i < 50; i++ {
			plan, err := sqlfe.Parse(r.mainQuery())
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := stageplan.Fingerprint(plan); err != nil {
				return err
			}
			fingerprint = append(fingerprint, us(time.Since(t0)))
			opt, err := engine.Optimize(plan, r.memCatalog())
			if err != nil {
				return err
			}
			t0 = time.Now()
			sp, err := stageplan.Decompose(opt, stats, cfg)
			if err != nil {
				return err
			}
			decompose = append(decompose, us(time.Since(t0)))
			stages = len(sp.Stages)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("stageplan.decompose_us", median(decompose))
	r.res.set("stageplan.fingerprint_us", median(fingerprint))
	r.res.set("stageplan.stages", float64(stages))
	return nil
}

func (r *replayer) lpq() error {
	var raws [][]byte
	for _, f := range r.d.files["lineitem"] {
		raw, _, err := r.d.dep.S3.Get(r.d.env, f.Bucket, f.Key)
		if err != nil {
			return err
		}
		raws = append(raws, raw)
	}
	var open []float64
	var decoded int64
	c, err := r.timed("lpq.decode", func() error {
		for _, raw := range raws {
			t0 := time.Now()
			rd, err := lpq.OpenReader(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				return err
			}
			open = append(open, us(time.Since(t0)))
			chunk, err := rd.ReadAll()
			if err != nil {
				return err
			}
			decoded += chunk.ByteSize()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("lpq.open_us", median(open))
	r.res.set("lpq.decode_mb_s", perSecond(float64(decoded)/mb, c.wall))
	r.res.set("lpq.decode_alloc_mb", float64(c.alloc)/mb)

	// What one sender writes for one partition of a boundary of the
	// workload's shape, many times over.
	senders, parts := len(raws), max(r.w.parts, 1)
	part := r.t.li.Slice(0, max(r.t.li.NumRows()/(senders*parts), 1))
	var encoded int64
	c, err = r.timed("lpq.encode", func() error {
		for i := 0; i < 4*r.repeats; i++ {
			if _, err := lpq.WriteFile(part.Schema, lpq.WriterOptions{}, part); err != nil {
				return err
			}
			encoded += part.ByteSize()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("lpq.encode_mb_s", perSecond(float64(encoded)/mb, c.wall))
	r.res.set("lpq.encode_alloc_mb", float64(c.alloc)/mb)
	return nil
}

func (r *replayer) scan() error {
	client := s3.NewClient(r.d.dep.S3, r.d.env)
	var stored int64
	for _, f := range r.d.files["lineitem"] {
		n, err := r.d.dep.S3.Head(r.d.env, f.Bucket, f.Key)
		if err != nil {
			return err
		}
		stored += n
	}
	drop := func(*columnar.Chunk) error { return nil }

	q1, err := tableScan(q1SQL, "lineitem")
	if err != nil {
		return err
	}
	c1, err := r.timed("scan.q1", func() error {
		return scan.New(client, serialScan(), r.d.files["lineitem"]...).Scan(q1.Projection, q1.Prune, drop)
	})
	if err != nil {
		return err
	}
	q6, err := tableScan(q6Year(1994), "lineitem")
	if err != nil {
		return err
	}
	src := scan.New(client, serialScan(), r.d.files["lineitem"]...)
	c6, err := r.timed("scan.q6", func() error { return src.ScanFiltered(q6.Projection, q6.Prune, q6.Filter, drop) })
	if err != nil {
		return err
	}
	st := src.Stats()
	r.res.set("scan.q1_mb_s", perSecond(float64(stored)/mb, c1.wall))
	r.res.set("scan.q6_mb_s", perSecond(float64(stored)/mb, c6.wall))
	r.res.set("scan.alloc_mb", float64(c1.alloc+c6.alloc)/mb)
	r.res.set("scan.billed_gets", float64(st.BilledGets))
	r.res.set("scan.billed_bytes", float64(st.BilledBytes))
	if pages := float64(st.PagesRead + st.PagesPruned + st.PagesFiltered); pages > 0 {
		r.res.set("scan.pages_pruned_share", float64(st.PagesPruned)/pages)
		r.res.set("scan.pages_filtered_share", float64(st.PagesFiltered)/pages)
	}
	return nil
}

// execute parses, optimizes and runs sql over cat the way a worker runs its
// fragment: filters and projections pushed into the scans, then the
// pipeline executor at the given pipeline count.
func execute(sql string, cat engine.Catalog, pipelines int) error {
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return err
	}
	if plan, err = engine.Optimize(plan, cat); err != nil {
		return err
	}
	_, err = engine.ExecuteParallel(plan, cat, engine.ParallelConfig{Pipelines: pipelines})
	return err
}

// best is the fastest of three runs: the least disturbed one.
func (r *replayer) best(name string, fn func() error) (cost, error) {
	var best cost
	for i := 0; i < 3; i++ {
		c, err := r.timed(name, fn)
		if err != nil {
			return cost{}, err
		}
		if i == 0 || c.wall < best.wall {
			best = c
		}
	}
	return best, nil
}

func (r *replayer) engine() error {
	cat := r.memCatalog()
	liRows := float64(r.t.li.NumRows())
	var alloc uint64
	c, err := r.best("engine.q1", func() error { return execute(q1SQL, cat, 1) })
	if err != nil {
		return err
	}
	r.res.set("engine.q1_rows_s", perSecond(liRows, c.wall))
	alloc += c.alloc
	if c, err = r.best("engine.q6", func() error { return execute(q6Year(1994), cat, 1) }); err != nil {
		return err
	}
	r.res.set("engine.q6_rows_s", perSecond(liRows, c.wall))
	alloc += c.alloc
	one, err := r.best("engine.q1.p1", func() error { return execute(q1SQL, cat, 1) })
	if err != nil {
		return err
	}
	two, err := r.best("engine.q1.p2", func() error { return execute(q1SQL, cat, 2) })
	if err != nil {
		return err
	}
	r.res.set("engine.agg_speedup_2p", float64(one.wall)/float64(two.wall))
	if r.t.ord != nil {
		if c, err = r.best("engine.join", func() error { return execute(q12Exact, cat, 1) }); err != nil {
			return err
		}
		r.res.set("engine.join_rows_s", perSecond(liRows+float64(r.t.ord.NumRows()), c.wall))
		alloc += c.alloc
		if one, err = r.best("engine.join.p1", func() error { return execute(q12Exact, cat, 1) }); err != nil {
			return err
		}
		if two, err = r.best("engine.join.p2", func() error { return execute(q12Exact, cat, 2) }); err != nil {
			return err
		}
		r.res.set("engine.join_speedup_2p", float64(one.wall)/float64(two.wall))
	}
	r.res.set("engine.alloc_mb", float64(alloc)/mb)
	return nil
}

// direct answers each query type of the workload's round on a single node
// straight from the stored files.
func (r *replayer) direct() (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for _, req := range r.w.round(0, 0, 0) {
		if _, done := out[req.kind]; done {
			continue
		}
		c, err := r.timed("direct."+req.kind, func() error { return execute(req.sql, r.scanCatalog(), 1) })
		if err != nil {
			return nil, err
		}
		out[req.kind] = c.cpu
	}
	return out, nil
}

// exchange replays the two stage boundaries of staged q12 — lineitem and
// orders, each repartitioned on its join key — at the workload's sender and
// partition counts with the variant the planner would choose: every sender
// publishes what its file's pushed-down scan yields, the regroup round runs
// if the variant has one, every partition is collected. Returns the CPU of
// both boundaries.
func (r *replayer) exchange() (time.Duration, error) {
	const buckets = 8
	svc := s3.New(s3.Config{})
	var names []string
	for i := 0; i < buckets; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
		svc.MustCreateBucket(names[i])
	}
	client := s3.NewClient(svc, simenv.NewImmediate())
	source := s3.NewClient(r.d.dep.S3, r.d.env)
	parts := r.w.parts

	var pub, col cost
	var inBytes, modeled int64
	for stage, side := range []struct{ table, key string }{{"lineitem", "l_orderkey"}, {"orders", "o_orderkey"}} {
		files := r.d.files[side.table]
		sp, err := tableScan(q12Exact, side.table)
		if err != nil {
			return 0, err
		}
		schema, err := sp.OutSchema()
		if err != nil {
			return 0, err
		}
		inputs := make([]*columnar.Chunk, len(files))
		rows := 0
		for s, f := range files {
			in := columnar.NewChunk(schema, 0)
			keep := func(c *columnar.Chunk) error { in.AppendChunk(c); return nil }
			src := scan.New(source, serialScan(), f)
			if sp.Filter != nil {
				err = src.ScanFiltered(sp.Projection, sp.Prune, sp.Filter, keep)
			} else {
				err = src.Scan(sp.Projection, sp.Prune, keep)
			}
			if err != nil {
				return 0, err
			}
			inputs[s] = in
			rows += in.NumRows()
			inBytes += in.ByteSize()
		}
		opts := exchange.Options{
			Variant: stageplan.ChooseVariant(len(files), parts, buckets, driver.DefaultExchangeConfig().Variant, 0),
			Buckets: names, Prefix: "replay", Poll: time.Millisecond, MaxWait: time.Minute,
		}
		b := exchange.Boundary{Stage: stage + 1, Senders: len(files), Partitions: parts}
		keys := []string{side.key}
		c, err := r.timed("exchange.publish", func() error {
			for s, in := range inputs {
				if err := exchange.PublishStage(client, opts, b, s, in, keys); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		pub.add(c)
		collected := 0
		c, err = r.timed("exchange.collect", func() error {
			if opts.Variant.Levels >= 2 {
				for g := 0; g < exchange.Groups(parts); g++ {
					if err := exchange.RegroupStage(client, opts, b, g, keys); err != nil {
						return err
					}
				}
			}
			for p := 0; p < parts; p++ {
				c, err := exchange.CollectStage(client, opts, b, p)
				if err != nil {
					return err
				}
				if c != nil {
					collected += c.NumRows()
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		col.add(c)
		if collected != rows {
			return 0, fmt.Errorf("replay exchange: %s boundary collected %d rows, published %d", side.table, collected, rows)
		}
		pool := buckets
		if n := opts.Variant.Buckets; n > 0 && n < buckets {
			pool = n
		}
		modeled += opts.Variant.Requests(len(files), parts, pool).Total()
		r.res.notef("exchange replay: %s S=%d P=%d variant=%v, %d rows", side.table, len(files), parts, opts.Variant, rows)
	}
	var billed exchange.RequestCount
	for _, name := range names {
		st, err := svc.BucketStats(name)
		if err != nil {
			return 0, err
		}
		billed.Puts += st.Puts
		billed.Gets += st.Gets
		billed.Lists += st.Lists
	}
	r.res.set("exchange.publish_mb_s", perSecond(float64(inBytes)/mb, pub.wall))
	r.res.set("exchange.collect_mb_s", perSecond(float64(inBytes)/mb, col.wall))
	r.res.set("exchange.publish_alloc_mb", float64(pub.alloc)/mb)
	r.res.set("exchange.collect_alloc_mb", float64(col.alloc)/mb)
	r.res.set("exchange.shuffle_bytes", float64(client.BytesWritten()))
	r.res.set("exchange.requests", float64(billed.Total()))
	r.res.set("exchange.model_delta", float64(billed.Total()-modeled))
	return pub.cpu + col.cpu, nil
}

// kernel measures raw DES dispatch the way BenchmarkEventDispatch does: one
// process sleeping through `events` timer events.
func (r *replayer) kernel() error {
	events := 12_500 * r.repeats
	c, _ := r.timed("simclock.dispatch", func() error {
		k := simclock.New()
		k.Go("spinner", func(p *simclock.Proc) {
			for i := 0; i < events; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		k.Run()
		return nil
	})
	r.res.set("simclock.ns_per_event", float64(c.wall)/float64(events))
	r.res.set("simclock.alloc_b_per_event", float64(c.alloc)/float64(events))
	return nil
}
