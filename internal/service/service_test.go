package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// q1SQL is a Q1-shaped single-table group-by; the name "q1" carries a
// calibrated QaaS billing spec, so /query responses include the dollar
// comparison.
const q1SQL = `
SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const paramSQL = `
SELECT l_suppkey, COUNT(*) AS n FROM lineitem
WHERE l_quantity < :maxqty
GROUP BY l_suppkey ORDER BY l_suppkey`

// newLocalServer stands up the full stack on a real-time local deployment:
// resident session with result cache, uploaded TPC-H data, HTTP handler.
func newLocalServer(t *testing.T) (*httptest.Server, *driver.Session) {
	t.Helper()
	dep := driver.NewLocal()
	cfg := driver.DefaultConfig()
	cfg.ResultCacheEntries = 16
	sess := driver.NewSession(dep, cfg)
	env := simenv.NewImmediate()
	if err := sess.Install(); err != nil {
		t.Fatal(err)
	}
	g := tpch.Gen{SF: 0.002, Seed: 33}
	li := g.Generate()
	refs, err := sess.UploadTable(env, "tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	scfg := driver.DefaultStageConfig()
	scfg.Partitions = 2
	srv := New(Config{
		Session: sess,
		Runner:  GoRunner{},
		Tables:  driver.TableFiles{"lineitem": refs},
		SF:      0.002,
		Stage:   scfg,
		Queries: map[string]string{"q1": q1SQL},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sess
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServeSmoke is the CI smoke path: query, repeat (cache hit),
// invalidate, query again (miss), session and stats endpoints.
func TestServeSmoke(t *testing.T) {
	ts, _ := newLocalServer(t)

	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d: %s", resp.StatusCode, raw)
	}
	var r1 QueryResponse
	if err := json.Unmarshal(raw, &r1); err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) == 0 || len(r1.Columns) != 4 {
		t.Fatalf("first query returned %d rows, %d columns", len(r1.Rows), len(r1.Columns))
	}
	if r1.Profile.CacheHit || r1.Profile.Workers == 0 {
		t.Errorf("first query profile = %+v, want fresh run with workers", r1.Profile)
	}
	if r1.QaaS == nil || r1.QaaS.AthenaUSD <= 0 || r1.QaaS.BigQueryUSD <= 0 {
		t.Errorf("q1 response missing QaaS comparison: %+v", r1.QaaS)
	}

	_, raw2 := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	var r2 QueryResponse
	if err := json.Unmarshal(raw2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Profile.CacheHit {
		t.Error("repeated query missed the result cache")
	}
	if fmt.Sprint(r2.Rows) != fmt.Sprint(r1.Rows) {
		t.Error("cached rows differ from the fresh run's")
	}

	if resp, raw := postJSON(t, ts.URL+"/invalidate", InvalidateRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: %d: %s", resp.StatusCode, raw)
	}
	_, raw3 := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
	var r3 QueryResponse
	if err := json.Unmarshal(raw3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Profile.CacheHit {
		t.Error("query after /invalidate still hit the cache")
	}
	// /invalidate drops the session's footers with its results, so the
	// planner opens the table's files again: the same reads as the first run,
	// not four fewer.
	if r3.Profile.S3GetRequests != r1.Profile.S3GetRequests {
		t.Errorf("query after /invalidate billed %d S3 reads, the first run %d: the session kept its footers",
			r3.Profile.S3GetRequests, r1.Profile.S3GetRequests)
	}

	sresp, err := http.Get(ts.URL + "/session")
	if err != nil {
		t.Fatal(err)
	}
	var sess SessionJSON
	if err := json.NewDecoder(sresp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sess.Queries != 3 || sess.CacheHits != 1 || sess.Tables[0] != "lineitem" {
		t.Errorf("session stats = %+v, want 3 queries / 1 hit / [lineitem]", sess)
	}

	stresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		TotalUSD float64 `json:"totalUsd"`
	}
	if err := json.NewDecoder(stresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	stresp.Body.Close()
	if stats.TotalUSD <= 0 {
		t.Errorf("deployment meter total = %v, want > 0", stats.TotalUSD)
	}

	// The same through the by-table branch, from the other side: a text the
	// cache does not hold plans without a read while the session knows the
	// footers, and with one read per file once {"table": ...} has dropped them.
	fresh := func() int64 {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL, Params: map[string]string{"maxqty": "10"}})
		var r QueryResponse
		if err := json.Unmarshal(raw, &r); err != nil || resp.StatusCode != http.StatusOK || r.Profile.CacheHit {
			t.Fatalf("param query: %d, %v, cache hit %v: %s", resp.StatusCode, err, r.Profile.CacheHit, raw)
		}
		return r.Profile.S3GetRequests
	}
	known := fresh()
	if resp, raw := postJSON(t, ts.URL+"/invalidate", InvalidateRequest{Table: "lineitem"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate lineitem: %d: %s", resp.StatusCode, raw)
	}
	if dropped := fresh(); dropped != known+4 {
		t.Errorf("param query billed %d S3 reads with the footers known and %d after invalidating the table, want 4 more (one per file)", known, dropped)
	}
}

// TestServeParams: :name placeholders substitute values; unknown and
// unbound parameters are 400s, not parser surprises.
func TestServeParams(t *testing.T) {
	ts, _ := newLocalServer(t)

	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL, Params: map[string]string{"maxqty": "24"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("param query: %d: %s", resp.StatusCode, raw)
	}
	var r QueryResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("param query returned no rows")
	}

	if resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL, Params: map[string]string{"nosuch": "1"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown param: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{SQL: paramSQL}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unbound param: status %d, want 400", resp.StatusCode)
	}

	// One name a prefix of another: :q never binds inside :qty, whichever
	// parameter the map hands out first.
	const want = `
SELECT l_suppkey, COUNT(*) AS n FROM lineitem
WHERE l_quantity < 24 AND l_linenumber >= 2
GROUP BY l_suppkey ORDER BY l_suppkey`
	for i := 0; i < 50; i++ {
		got, err := substituteParams(prefixSQL, prefixParams)
		if err != nil || got != want {
			t.Fatalf("call %d: %q, %v; want %q", i, got, err, want)
		}
	}
	if resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{SQL: prefixSQL, Params: prefixParams}); resp.StatusCode != http.StatusOK {
		t.Errorf("prefix-overlap params: %d: %s", resp.StatusCode, raw)
	}

	// Substituted text is not scanned again: a value holding a placeholder
	// stays a literal, and the placeholder it names need not be bound.
	got, err := substituteParams("SELECT :a, :b", map[string]string{"a": "x:hi", "b": "1"})
	if want := "SELECT 'x:hi', 1"; err != nil || got != want {
		t.Errorf("value with a placeholder: %q, %v; want %q", got, err, want)
	}
}

// prefixSQL binds two parameters, one name a prefix of the other.
const prefixSQL = `
SELECT l_suppkey, COUNT(*) AS n FROM lineitem
WHERE l_quantity < :qty AND l_linenumber >= :q
GROUP BY l_suppkey ORDER BY l_suppkey`

var prefixParams = map[string]string{"q": "2", "qty": "24"}

// badInput is one request the service must refuse, and the status it
// refuses it with.
type badInput struct {
	name, path, body string
	want             int
}

func badInputs() []badInput {
	huge := `{"sql": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	return []badInput{
		{"unparsable SQL", "/query", `{"sql": "SELEKT 1"}`, http.StatusBadRequest},
		{"unknown column", "/query", `{"sql": "SELECT SUM(no_such_column) AS s FROM lineitem"}`, http.StatusBadRequest},
		{"unknown table", "/query", `{"sql": "SELECT COUNT(*) AS n FROM nosuch"}`, http.StatusBadRequest},
		{"huge partitions", "/query", `{"name": "q1", "partitions": 100000000}`, http.StatusBadRequest},
		{"negative partitions", "/query", `{"name": "q1", "partitions": -1}`, http.StatusBadRequest},
		{"malformed body", "/query", `{"name": `, http.StatusBadRequest},
		{"oversized body", "/query", huge, http.StatusRequestEntityTooLarge},
		{"oversized invalidate", "/invalidate", huge, http.StatusRequestEntityTooLarge},
	}
}

// TestServeRejectsBadInput: whatever is wrong with a request is answered
// 4xx with the reason, never 500 and never by running a fleet — SQL that
// does not parse, SQL that parses but does not plan against the tables,
// a fan-in outside [0, maxPartitions], a body that is not JSON or is larger
// than maxBodyBytes. The service stays up and answers the next valid request.
func TestServeRejectsBadInput(t *testing.T) {
	ts, sess := newLocalServer(t)
	before, _ := sess.Deployment().Lambda.Invocations()
	for _, tc := range badInputs() {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want || len(bytes.TrimSpace(msg)) == 0 {
			t.Errorf("%s: status %d %q, want %d with a reason", tc.name, resp.StatusCode, msg, tc.want)
		}
	}
	if after, _ := sess.Deployment().Lambda.Invocations(); after != before {
		t.Errorf("rejected requests invoked %d workers", after-before)
	}
	if resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1", Partitions: maxPartitions / 1024}); resp.StatusCode != http.StatusOK {
		t.Errorf("valid request after the rejected ones: %d: %s", resp.StatusCode, raw)
	}
}

// TestServeDESConcurrent: the DES runner batches concurrent HTTP requests
// into concurrent virtual-time queries on one simulated deployment — the
// service-layer face of the interleaved-session acceptance test.
func TestServeDESConcurrent(t *testing.T) {
	k := simclock.New()
	dep := driver.NewSimulated(k, 71)
	cfg := driver.DefaultConfig()
	cfg.PollInterval = 50 * time.Millisecond
	cfg.MaxInFlight = 12
	sess := driver.NewSession(dep, cfg)
	runner := NewDESRunner(k, 100*time.Millisecond)
	go runner.Serve()
	defer runner.Close()

	var refs driver.TableFiles
	if err := runner.Run(func(env simenv.Env) error {
		if err := sess.Install(); err != nil {
			return err
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li, err := sess.UploadTable(env, "tpch", "lineitem", g.Generate(), 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			return err
		}
		refs = driver.TableFiles{"lineitem": li}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	scfg := driver.DefaultStageConfig()
	scfg.Partitions = 2
	srv := New(Config{
		Session: sess,
		Runner:  runner,
		Tables:  refs,
		SF:      0.002,
		Stage:   scfg,
		Queries: map[string]string{"q1": q1SQL},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const N = 2
	responses := make([]QueryResponse, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Name: "q1"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &responses[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(responses[0].Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := 1; i < N; i++ {
		if fmt.Sprint(responses[i].Rows) != fmt.Sprint(responses[0].Rows) {
			t.Errorf("request %d rows diverge", i)
		}
	}
	ids := map[string]bool{}
	for _, r := range responses {
		if !r.Profile.CacheHit {
			ids[r.Profile.QueryID] = true
		}
	}
	if len(ids) == 0 {
		t.Error("no fresh query ran")
	}
	if strings.TrimSpace(responses[0].Profile.QueryID) == "" {
		t.Error("missing query ID")
	}
}
