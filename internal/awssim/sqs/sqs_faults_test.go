package sqs

import (
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
)

// TestInjectedDuplicateDelivery: a duplicate fault enqueues the message
// twice — the second copy hidden until now+Delay — while billing one Send.
func TestInjectedDuplicateDelivery(t *testing.T) {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Delay: 100 * time.Millisecond, Count: 1},
	}})
	s := New(Config{Meter: meter, Faults: inj})
	env := simenv.NewImmediate()
	s.CreateQueue("q")
	if err := s.Send(env, "q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(pricing.LabelSQS); got != 1 {
		t.Errorf("send billed %d requests, want 1 (duplication is server-side)", got)
	}
	ms, err := s.Receive(env, "q", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("immediate receive = %d messages, want 1 (copy still hidden)", len(ms))
	}
	env.Sleep(150 * time.Millisecond)
	ms, err = s.Receive(env, "q", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || string(ms[0].Body) != "x" {
		t.Fatalf("post-delay receive = %v, want the delayed duplicate", ms)
	}
}

// TestInjectedDuplicateKeepsOrder: a hidden copy does not reorder messages
// behind it.
func TestInjectedDuplicateKeepsOrder(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Delay: time.Hour, Count: 1},
	}})
	s := New(Config{Faults: inj})
	env := simenv.NewImmediate()
	s.CreateQueue("q")
	s.Send(env, "q", []byte("a")) // duplicated, copy hidden for an hour
	s.Send(env, "q", []byte("b"))
	ms, _ := s.Receive(env, "q", 10)
	if len(ms) != 2 || string(ms[0].Body) != "a" || string(ms[1].Body) != "b" {
		t.Fatalf("receive = %d messages, want visible a,b in order", len(ms))
	}
	if len(s.queues["q"]) != 1 {
		t.Errorf("queue len = %d, want the hidden copy still queued", len(s.queues["q"]))
	}
}

// TestInjectedTransientAndTimeout: transient errors and timeouts fail the
// request after billing it — the request reached the service.
func TestInjectedTransientAndTimeout(t *testing.T) {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpSQSSend, Kind: faults.KindTransient, Count: 1},
		{Op: faults.OpSQSReceive, Kind: faults.KindTimeout, Count: 1},
	}})
	s := New(Config{Meter: meter, Faults: inj})
	env := simenv.NewImmediate()
	s.CreateQueue("q")

	if err := s.Send(env, "q", []byte("x")); !errors.Is(err, faults.ErrInternal) {
		t.Fatalf("first send err = %v, want injected internal error", err)
	}
	if len(s.queues["q"]) != 0 {
		t.Error("failed send enqueued a message")
	}
	if err := s.Send(env, "q", []byte("x")); err != nil {
		t.Fatalf("second send: %v", err)
	}
	if _, err := s.Receive(env, "q", 10); !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("first receive err = %v, want injected timeout", err)
	}
	ms, err := s.Receive(env, "q", 10)
	if err != nil || len(ms) != 1 {
		t.Fatalf("second receive = %v, %v", ms, err)
	}
	// 2 sends + 2 receives, all billed (failed ones included).
	if got := meter.Count(pricing.LabelSQS); got != 4 {
		t.Errorf("billed %d requests, want 4", got)
	}
}
