package main

import (
	"fmt"
	"time"
)

// serviceLayers measures what the HTTP/JSON surface adds to a query the
// session answers from its result cache: the same cached q6, once through
// POST /query and once as the Session call the handler makes.
func (w *workload) serviceLayers(res *result, rec *recorder, root int, d *deployment) error {
	const calls = 200
	req := request{kind: "q6", sql: q6Year(1994), name: "q6"}
	want, _, err := w.exec(d, d.env, req)
	if err != nil {
		return fmt.Errorf("service replay: %w", err)
	}

	var direct, overHTTP, bytes []float64
	id := rec.start("replay.driver.cache_hit", root, 0)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		_, rep, err := w.exec(d, d.env, req)
		if err != nil || !rep.CacheHit {
			return fmt.Errorf("service replay: cached q6 did not hit the cache (%v)", err)
		}
		direct = append(direct, us(time.Since(t0)))
	}
	rec.end(id)
	id = rec.start("replay.service.post", root, 0)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		n, err := d.post(req, want)
		if err != nil {
			return fmt.Errorf("service replay: %w", err)
		}
		overHTTP = append(overHTTP, us(time.Since(t0)))
		bytes = append(bytes, float64(n))
	}
	rec.end(id)
	res.set("driver.cache_hit_us", median(direct))
	res.set("service.http_overhead_us", median(overHTTP)-median(direct))
	res.set("service.response_bytes", mean(bytes))
	return nil
}
