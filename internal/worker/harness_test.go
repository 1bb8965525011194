package worker

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/scan"
	"lambada/internal/sqlfe"
)

// testbed is a worker Function on the services of a goroutine-worker
// deployment — no latency, no throttles, no faults — with the meter they
// bill to and the environment its tasks run on.
type testbed struct {
	fn    *Function
	meter *pricing.CostMeter
	env   simenv.Env
}

func newTestbed() *testbed {
	meter := pricing.NewCostMeter()
	return &testbed{
		fn: &Function{Name: "lambada-worker", Region: netmodel.RegionEU, RetryBudget: 256,
			S3: s3.New(s3.Config{Meter: meter}), Dynamo: dynamo.New(dynamo.Config{Meter: meter}), SQS: sqs.New(sqs.Config{Meter: meter}),
			Lambda: lambdasvc.New(lambdasvc.Config{Meter: meter}, &lambdasvc.GoRuntime{})},
		meter: meter,
		env:   simenv.NewImmediate(),
	}
}

// upload writes data into bucket as nfiles lpq objects under prefix and
// returns them pinned, as the planner ships them.
func (b *testbed) upload(t testing.TB, bucket, prefix string, data *columnar.Chunk, nfiles int, opts lpq.WriterOptions) []scan.FileRef {
	t.Helper()
	b.fn.S3.MustCreateBucket(bucket)
	client := s3.NewClient(b.fn.S3, b.env)
	var refs []scan.FileRef
	for i, part := range data.Split(nfiles) {
		blob, err := lpq.WriteFile(data.Schema, opts, part)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/part-%05d.lpq", prefix, i)
		if err := client.Put(bucket, key, blob); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, scan.FileRef{Bucket: bucket, Key: key})
	}
	pinned, err := scan.New(client, scan.DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		t.Fatal(err)
	}
	return pinned
}

// seal hands p to a worker of memoryMiB and returns the one message it
// posted to the result queue.
func (b *testbed) seal(t testing.TB, memoryMiB int, p Payload) Result {
	t.Helper()
	p.ResultQueue = "results"
	b.fn.SQS.CreateQueue(p.ResultQueue)
	body, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.fn.Handle(&lambdasvc.Ctx{Env: b.env, MemoryMiB: memoryMiB}, body); err != nil {
		t.Fatalf("the handler failed to post: %v", err)
	}
	msgs, err := b.fn.SQS.Receive(b.env, p.ResultQueue, 10)
	var r Result
	if err == nil && len(msgs) == 1 {
		err = json.Unmarshal(msgs[0].Body, &r)
	}
	if err != nil || len(msgs) != 1 {
		t.Fatalf("%d messages posted (%v), want one seal", len(msgs), err)
	}
	return r
}

// optimized is sql planned as the driver plans it before it decomposes it:
// parsed, and optimized against the tables' schemas.
func optimized(t testing.TB, sql string, schemas map[string]*columnar.Schema) engine.Plan {
	t.Helper()
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.Catalog{}
	for name, schema := range schemas {
		cat[name] = engine.NewMemSource(schema)
	}
	opt, err := engine.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// marshalled is plan's wire form.
func marshalled(t testing.TB, plan engine.Plan) json.RawMessage {
	t.Helper()
	b, err := engine.MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantOOM fails t unless r is the non-retryable failure seal of a worker out
// of memory whose message, past ErrWorkerOOM's, starts with prefix.
func wantOOM(t *testing.T, r Result, prefix string) {
	t.Helper()
	if r.Retryable || !strings.HasPrefix(r.Err, engine.ErrWorkerOOM.Error()+": "+prefix) {
		t.Errorf("seal %q (retryable: %t), want a non-retryable %q: %q…", r.Err, r.Retryable, engine.ErrWorkerOOM, prefix)
	}
}
