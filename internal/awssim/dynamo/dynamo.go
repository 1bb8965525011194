// Package dynamo simulates Amazon DynamoDB as a key-value store with
// per-request on-demand pricing. Lambada uses it for small amounts of shared
// state (Figure 3); the simulator provides put/get/delete and a prefix scan.
package dynamo

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
)

// Errors returned by the service.
var (
	ErrNoSuchTable     = errors.New("dynamo: no such table")
	ErrNoSuchItem      = errors.New("dynamo: no such item")
	ErrConditionFailed = errors.New("dynamo: conditional check failed")
	// ErrThrottled is an injected ProvisionedThroughputExceededException-class
	// rejection; it wraps faults.ErrThrottled, which resilience classifies
	// retryable.
	ErrThrottled = fmt.Errorf("dynamo: %w", faults.ErrThrottled)
)

// Config controls latency and pricing. Zero value: free, instant.
type Config struct {
	ReadLatency  netmodel.Dist
	WriteLatency netmodel.Dist
	Meter        *pricing.CostMeter
	Seed         int64

	// Faults injects deterministic throttling on Put/PutIf/Get. Throttled
	// requests are rejected unbilled and before latency (AWS does not charge
	// them). Nil injects nothing.
	Faults *faults.Injector
}

// DefaultAWSConfig returns single-digit-millisecond DynamoDB latencies.
func DefaultAWSConfig(meter *pricing.CostMeter, seed int64) Config {
	return Config{
		ReadLatency:  netmodel.Uniform{Min: 2 * time.Millisecond, Max: 9 * time.Millisecond},
		WriteLatency: netmodel.Uniform{Min: 3 * time.Millisecond, Max: 12 * time.Millisecond},
		Meter:        meter,
		Seed:         seed,
	}
}

// Service is a simulated DynamoDB endpoint, safe for concurrent use.
type Service struct {
	mu     sync.Mutex
	cfg    Config
	tables map[string]map[string][]byte
	rng    *rand.Rand
	rngMu  sync.Mutex
}

// New returns a service with the given configuration.
func New(cfg Config) *Service {
	return &Service{cfg: cfg, tables: make(map[string]map[string][]byte), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// CreateTable creates an empty table (idempotent).
func (s *Service) CreateTable(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		s.tables[name] = make(map[string][]byte)
	}
}

// Put stores value under key. Like s3.put, the write becomes visible — and
// the completion signal fires — only after the write latency elapsed:
// waiters parked on the signal must not observe (or be woken by) a write
// the writer is still paying for.
func (s *Service) Put(env simenv.Env, table, key string, value []byte) error {
	if f, ok := s.cfg.Faults.Next(faults.OpDynamoPut); ok && f.Kind == faults.KindThrottle {
		return ErrThrottled
	}
	s.mu.Lock()
	_, ok := s.tables[table]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	s.cfg.Meter.Charge(env, obs.Cost{DynamoWrites: 1})
	s.sleep(env, s.cfg.WriteLatency)
	s.mu.Lock()
	t, ok := s.tables[table]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	t[key] = cp
	s.mu.Unlock()
	// Completion signal: wake pollers parked on this item's topic —
	// pipelined stage workers park on the ready marker this Put may be.
	simenv.BroadcastKey(env, "dynamo/"+table+"/"+key)
	return nil
}

// PutIf stores value under key only when the item's current state matches
// expect: nil expect requires the item to not exist; otherwise the stored
// value must equal expect byte-for-byte. The check and the store are atomic
// under the service lock and happen — like Put's write — after the write
// latency elapsed, so the condition is evaluated at the instant the write
// becomes visible. DynamoDB's conditional write, the primitive the driver's
// query-epoch fence increments through. A failed condition is billed like a
// write (DynamoDB charges failed conditional writes) and returns
// ErrConditionFailed.
func (s *Service) PutIf(env simenv.Env, table, key string, value, expect []byte) error {
	if f, ok := s.cfg.Faults.Next(faults.OpDynamoPutIf); ok && f.Kind == faults.KindThrottle {
		return ErrThrottled
	}
	s.mu.Lock()
	_, ok := s.tables[table]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	s.cfg.Meter.Charge(env, obs.Cost{DynamoWrites: 1})
	s.sleep(env, s.cfg.WriteLatency)
	s.mu.Lock()
	t, ok := s.tables[table]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	cur, exists := t[key]
	met := false
	if expect == nil {
		met = !exists
	} else {
		met = exists && bytes.Equal(cur, expect)
	}
	if met {
		cp := make([]byte, len(value))
		copy(cp, value)
		t[key] = cp
	}
	s.mu.Unlock()
	if !met {
		return fmt.Errorf("%w: %s/%s", ErrConditionFailed, table, key)
	}
	simenv.BroadcastKey(env, "dynamo/"+table+"/"+key)
	return nil
}

// Get returns the value under key.
func (s *Service) Get(env simenv.Env, table, key string) ([]byte, error) {
	if f, ok := s.cfg.Faults.Next(faults.OpDynamoGet); ok && f.Kind == faults.KindThrottle {
		return nil, ErrThrottled
	}
	s.mu.Lock()
	t, ok := s.tables[table]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	v, okKey := t[key]
	var cp []byte
	if okKey {
		cp = make([]byte, len(v))
		copy(cp, v)
	}
	s.mu.Unlock()
	s.cfg.Meter.Charge(env, obs.Cost{DynamoReads: 1})
	s.sleep(env, s.cfg.ReadLatency)
	if !okKey {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchItem, table, key)
	}
	return cp, nil
}

// Delete removes key (idempotent), billed as a write.
func (s *Service) Delete(env simenv.Env, table, key string) error {
	s.mu.Lock()
	t, ok := s.tables[table]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	delete(t, key)
	s.mu.Unlock()
	s.cfg.Meter.Charge(env, obs.Cost{DynamoWrites: 1})
	s.sleep(env, s.cfg.WriteLatency)
	return nil
}

// Item is a scan result row.
type Item struct {
	Key   string
	Value []byte
}

// Scan returns all items whose key starts with prefix, sorted by key.
// Billed as one read per returned item (approximating RCU accounting).
func (s *Service) Scan(env simenv.Env, table, prefix string) ([]Item, error) {
	s.mu.Lock()
	t, ok := s.tables[table]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	var out []Item
	for k, v := range t {
		if strings.HasPrefix(k, prefix) {
			cp := make([]byte, len(v))
			copy(cp, v)
			out = append(out, Item{Key: k, Value: cp})
		}
	}
	s.mu.Unlock()
	n := int64(len(out))
	if n == 0 {
		n = 1
	}
	s.cfg.Meter.Charge(env, obs.Cost{DynamoReads: n})
	s.sleep(env, s.cfg.ReadLatency)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

func (s *Service) sleep(env simenv.Env, d netmodel.Dist) {
	if d == nil {
		return
	}
	s.rngMu.Lock()
	v := d.Sample(s.rng)
	s.rngMu.Unlock()
	env.Sleep(v)
}
