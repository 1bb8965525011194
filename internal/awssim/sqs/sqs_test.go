package sqs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/simclock"
)

func TestSendReceiveFIFO(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateQueue("q")
	for i := 0; i < 3; i++ {
		if err := s.Send(env, "q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := s.Receive(env, "q", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d messages", len(ms))
	}
	for i, m := range ms {
		if m.Body[0] != byte(i) {
			t.Errorf("message %d = %v", i, m.Body)
		}
	}
	if len(s.queues["q"]) != 0 {
		t.Error("queue not drained")
	}
}

func TestReceiveBatchCap(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateQueue("q")
	for i := 0; i < 15; i++ {
		s.Send(env, "q", []byte("m"))
	}
	ms, _ := s.Receive(env, "q", 100)
	if len(ms) != 10 {
		t.Errorf("batch = %d, want capped at 10", len(ms))
	}
}

func TestMissingQueue(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	if err := s.Send(env, "nope", nil); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("send err = %v", err)
	}
	if _, err := s.Receive(env, "nope", 1); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("receive err = %v", err)
	}
}

func TestPricing(t *testing.T) {
	meter := pricing.NewCostMeter()
	s := New(Config{Meter: meter})
	env := simenv.NewImmediate()
	s.CreateQueue("q")
	s.Send(env, "q", []byte("x"))
	s.Receive(env, "q", 1)
	s.Receive(env, "q", 1) // empty receive still billed
	if got := meter.Count(pricing.LabelSQS); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
}

// pollAll is the driver's result-collection pattern (§3.3) on the bare
// service: Receive until want messages arrived or maxWait of virtual time
// passed, sleeping poll between empty-handed rounds.
func pollAll(s *Service, env simenv.Env, queue string, want int, poll, maxWait time.Duration) ([]Message, error) {
	deadline := env.Now() + maxWait
	var got []Message
	for len(got) < want {
		ms, err := s.Receive(env, queue, 10)
		if err != nil {
			return got, err
		}
		got = append(got, ms...)
		if len(got) >= want {
			break
		}
		if env.Now() >= deadline {
			return got, fmt.Errorf("sqs: poll timeout with %d/%d messages", len(got), want)
		}
		env.Sleep(poll)
	}
	return got, nil
}

func TestPollAllDriverPattern(t *testing.T) {
	// The driver polls the result queue until it has heard from all
	// workers (§3.3).
	s := New(Config{})
	k := simclock.New()
	s.CreateQueue("results")
	const workers = 50
	for i := 0; i < workers; i++ {
		i := i
		k.Go("worker", func(p *simclock.Proc) {
			p.Sleep(time.Duration(i%10+1) * 100 * time.Millisecond)
			s.Send(p, "results", []byte(fmt.Sprintf("worker-%d", i)))
		})
	}
	var got []Message
	var err error
	k.Go("driver", func(p *simclock.Proc) {
		got, err = pollAll(s, p, "results", workers, 50*time.Millisecond, time.Minute)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers {
		t.Errorf("got %d messages", len(got))
	}
}

// TestSendWakesImmediatePoller: a Receive loop spinning on an Immediate env
// (huge virtual budget) must complete promptly in real time once workers
// Send — the completion signal wakes the poller instead of it riding out
// per-poll throttles.
func TestSendWakesImmediatePoller(t *testing.T) {
	s := New(Config{})
	s.CreateQueue("results")
	const workers = 20
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := simenv.NewImmediate() // each worker has its own clock
			env.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			s.Send(env, "results", []byte(fmt.Sprintf("worker-%d", i)))
		}(i)
	}
	start := time.Now()
	driverEnv := simenv.NewImmediate()
	got, err := pollAll(s, driverEnv, "results", workers, 25*time.Millisecond, 10*time.Minute)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers {
		t.Errorf("got %d messages", len(got))
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Errorf("poll of %d immediate-env sends took %v of real time", workers, real)
	}
}

func TestPollAllTimesOut(t *testing.T) {
	s := New(Config{})
	k := simclock.New()
	s.CreateQueue("results")
	var err error
	k.Go("driver", func(p *simclock.Proc) {
		_, err = pollAll(s, p, "results", 5, 10*time.Millisecond, 200*time.Millisecond)
	})
	k.Run()
	if err == nil {
		t.Error("expected timeout error")
	}
}

func TestSentAtRecordsVirtualTime(t *testing.T) {
	s := New(Config{})
	k := simclock.New()
	s.CreateQueue("q")
	k.Go("p", func(p *simclock.Proc) {
		p.Sleep(3 * time.Second)
		s.Send(p, "q", []byte("x"))
	})
	k.Run()
	env := simenv.NewImmediate()
	ms, _ := s.Receive(env, "q", 1)
	if len(ms) != 1 || ms[0].SentAt != 3*time.Second {
		t.Errorf("messages = %+v", ms)
	}
}
