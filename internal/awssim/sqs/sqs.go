// Package sqs simulates Amazon SQS: named queues with send and
// (non-blocking) receive plus per-request pricing. Lambada uses SQS as the
// result channel: every worker posts a success or error message, and the
// driver polls until it has heard back from all workers (§3.3).
//
// Receive is non-blocking by design. A caller that waits for messages arms a
// simenv.Barrier on the queue's topic ("sqs/<queue>") before each Receive and,
// when it comes back empty, parks on it with its poll interval as the timeout:
// a Send broadcasts the topic, so the waiter wakes the instant a message lands,
// even one sent while its Receive was in flight. The driver's result loop
// waits so, on the DES kernel and on goroutine workers alike, with the same
// code.
package sqs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
)

// ErrNoSuchQueue is returned for operations on missing queues.
var ErrNoSuchQueue = errors.New("sqs: no such queue")

// Message is one queue entry.
type Message struct {
	Body []byte
	// SentAt is the virtual send time.
	SentAt time.Duration
	// VisibleAt hides the message from Receive until this virtual instant —
	// how an injected delayed redelivery parks its duplicate copy. Zero
	// means immediately visible.
	VisibleAt time.Duration
}

// Config controls latency and pricing. Zero value: free, instant.
type Config struct {
	// SendLatency and ReceiveLatency are per-request round trips.
	SendLatency    netmodel.Dist
	ReceiveLatency netmodel.Dist
	Meter          *pricing.CostMeter
	Seed           int64

	// Faults injects deterministic failures: duplicate delivery and delayed
	// redelivery on Send (real SQS is at-least-once), transient errors and
	// request timeouts on both Send and Receive. Nil injects nothing.
	Faults *faults.Injector
}

// DefaultAWSConfig returns typical intra-region SQS latencies.
func DefaultAWSConfig(meter *pricing.CostMeter, seed int64) Config {
	return Config{
		SendLatency:    netmodel.Uniform{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		ReceiveLatency: netmodel.Uniform{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Meter:          meter,
		Seed:           seed,
	}
}

// Service is a simulated SQS endpoint, safe for concurrent use.
type Service struct {
	mu     sync.Mutex
	cfg    Config
	queues map[string][]Message
	ep     *simenv.Endpoint
}

// New returns a service with the given configuration.
func New(cfg Config) *Service {
	return &Service{cfg: cfg, queues: make(map[string][]Message), ep: simenv.NewEndpoint("sqs", nil, cfg.Seed, cfg.Meter, cfg.Faults)}
}

// CreateQueue creates an empty queue (idempotent, free).
func (s *Service) CreateQueue(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; !ok {
		s.queues[name] = nil
	}
}

// DeleteQueue removes a queue and any messages still on it (idempotent,
// free — the real API bills deletes at noise level). A resident session
// runs each query over its own result queue and deletes it at query end so
// the deployment does not accumulate one queue per query ever run; a
// worker posting to a deleted queue gets ErrNoSuchQueue, and what it wrote
// elsewhere is its own to delete — the query that would have is over.
func (s *Service) DeleteQueue(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queues, name)
}

// Send appends a message. Under an injected duplicate fault the message is
// enqueued twice — the at-least-once delivery of real SQS — with the second
// copy optionally hidden until now+Delay (delayed redelivery). One Send is
// one billed request regardless: the duplication is server-side.
func (s *Service) Send(env simenv.Env, queue string, body []byte) error {
	fault, err := s.ep.Fault(env, faults.OpSQSSend, obs.Cost{SQSRequests: 1}, s.cfg.SendLatency)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.queues[queue]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchQueue, queue)
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	s.queues[queue] = append(s.queues[queue], Message{Body: cp, SentAt: env.Now()})
	if fault.Kind == faults.KindDuplicate {
		s.queues[queue] = append(s.queues[queue], Message{Body: cp, SentAt: env.Now(), VisibleAt: env.Now() + fault.Delay})
	}
	s.mu.Unlock()

	s.cfg.Meter.Charge(env, obs.Cost{SQSRequests: 1})
	// Completion signal: wake pollers parked on this queue's topic — DES
	// processes parked on a simenv.Barrier and Immediate-env pollers blocked
	// in Sleep or a Barrier's timed wait — so result collectors react to the
	// message at its exact arrival instant instead of on their next throttled
	// poll tick, and collectors of other queues stay parked.
	simenv.BroadcastKey(env, "sqs/"+queue)
	s.ep.Sleep(env, s.cfg.SendLatency)
	return nil
}

// Receive removes and returns up to max currently visible messages
// (possibly none); messages whose VisibleAt lies in the future stay queued
// in order. Each call is one billed request.
func (s *Service) Receive(env simenv.Env, queue string, max int) ([]Message, error) {
	if max < 1 {
		max = 1
	}
	if max > 10 {
		max = 10 // AWS caps batch receives at ten messages
	}
	if _, err := s.ep.Fault(env, faults.OpSQSReceive, obs.Cost{SQSRequests: 1}, s.cfg.ReceiveLatency); err != nil {
		return nil, err
	}
	s.mu.Lock()
	q, ok := s.queues[queue]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchQueue, queue)
	}
	now := env.Now()
	out := make([]Message, 0, max)
	rest := make([]Message, 0, len(q))
	for _, m := range q {
		if len(out) < max && m.VisibleAt <= now {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	s.queues[queue] = rest
	s.mu.Unlock()

	s.ep.Request(env, obs.Cost{SQSRequests: 1}, s.cfg.ReceiveLatency)
	return out, nil
}
