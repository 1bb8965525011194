package s3

import (
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/resilience"
)

// TestClientRetriesInjectedTransients: the client's retry loop absorbs
// injected 500s; each failed attempt is billed (it reached the service).
func TestClientRetriesInjectedTransients(t *testing.T) {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindTransient, Count: 2},
	}})
	svc := New(Config{Meter: meter, Faults: inj})
	svc.MustCreateBucket("b")
	env := simenv.NewImmediate()
	c := NewClient(svc, env)
	if err := c.Put("b", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Get("b", "k", 1)
	if err != nil || string(data) != "payload" {
		t.Fatalf("get = %q, %v", data, err)
	}
	if c.Retries() != 2 {
		t.Errorf("client retries = %d, want 2", c.Retries())
	}
	if got := meter.Count(pricing.LabelS3Read); got != 3 {
		t.Errorf("billed %d reads, want 3 (2 failed + 1 success)", got)
	}
}

// TestClientRetriesInjectedSlowDown: an injected SlowDown storm behaves
// like the organic one — retried, unbilled.
func TestClientRetriesInjectedSlowDown(t *testing.T) {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Put, Kind: faults.KindSlowDown, Count: 3},
	}})
	svc := New(Config{Meter: meter, Faults: inj})
	svc.MustCreateBucket("b")
	c := NewClient(svc, simenv.NewImmediate())
	if err := c.Put("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.Retries() != 3 {
		t.Errorf("client retries = %d, want 3", c.Retries())
	}
	if got := meter.Count(pricing.LabelS3Write); got != 1 {
		t.Errorf("billed %d writes, want 1 (SlowDowns are unbilled)", got)
	}
}

// TestClientBudgetExhaustion: a spent retry budget surfaces as a typed
// ExhaustedError instead of retrying forever — the worker-side degradation
// path.
func TestClientBudgetExhaustion(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindTransient}, // every Get fails
	}})
	svc := New(Config{Faults: inj})
	svc.MustCreateBucket("b")
	c := NewClient(svc, simenv.NewImmediate(), WithPolicy(resilience.Policy{Budget: resilience.NewBudget(2)}))
	c.Put("b", "k", []byte("x"))
	_, _, err := c.Get("b", "k", 1)
	var ex *resilience.ExhaustedError
	if !errors.As(err, &ex) || !ex.BudgetSpent {
		t.Fatalf("err = %v, want budget-spent ExhaustedError", err)
	}
	if !resilience.Retryable(err) {
		t.Error("budget exhaustion should be retryable from a higher scope")
	}
}

// TestClientRetriesLeaveServiceLatenciesAlone: a backoff is a hash of its
// policy's seed, never a draw from the service's latency sampler — so on one
// service with one seed, what client B's GET costs does not depend on whether
// client A was turned away and retried before it.
func TestClientRetriesLeaveServiceLatenciesAlone(t *testing.T) {
	latencyOfB := func(plan faults.Plan) time.Duration {
		cfg := DefaultAWSConfig(nil, 5)
		cfg.Faults = faults.NewInjector(plan)
		svc := New(cfg)
		svc.MustCreateBucket("b")
		a := NewClient(svc, simenv.NewImmediate())
		if err := a.Put("b", "k", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Get("b", "k", 1); err != nil {
			t.Fatal(err)
		}
		if want := int64(len(plan.Rules)) * 2; a.Retries() != want {
			t.Fatalf("client A made %d retries, want %d", a.Retries(), want)
		}
		env := simenv.NewImmediate()
		if _, _, err := NewClient(svc, env).Get("b", "k", 1); err != nil {
			t.Fatal(err)
		}
		return env.Now()
	}
	undisturbed := latencyOfB(faults.Plan{})
	// A SlowDown is turned away before the service samples a latency, so A's
	// GET draws one either way; only its two backoffs come on top.
	afterRetries := latencyOfB(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindSlowDown, Count: 2},
	}})
	if undisturbed != afterRetries {
		t.Errorf("client B's GET took %v after client A's retries, %v without them", afterRetries, undisturbed)
	}
}
