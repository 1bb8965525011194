// Package dynamo simulates Amazon DynamoDB as a key-value store with
// per-request on-demand pricing. Lambada uses it for small amounts of shared
// state (Figure 3); the simulator provides put/get/delete and a prefix scan.
package dynamo

import (
	"bytes"
	"errors"
	"fmt"
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
	// ErrItemTooLarge is DynamoDB's validation error for an item over
	// MaxItemBytes: rejected unbilled, and no retry helps.
	ErrItemTooLarge = errors.New("dynamo: item size exceeds the limit")
)

// MaxItemBytes is DynamoDB's item size limit, 400 KB, counted here over the
// key and the value together.
const MaxItemBytes = 400 << 10

// fits checks an item against MaxItemBytes.
func fits(table, key string, value []byte) error {
	if n := len(key) + len(value); n > MaxItemBytes {
		return fmt.Errorf("%w: %s/%s is %d bytes, over %d", ErrItemTooLarge, table, key, n, MaxItemBytes)
	}
	return nil
}

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
	ep     *simenv.Endpoint
}

// New returns a service with the given configuration.
func New(cfg Config) *Service {
	return &Service{cfg: cfg, tables: make(map[string]map[string][]byte), ep: simenv.NewEndpoint("dynamo", ErrThrottled, cfg.Seed, cfg.Meter, cfg.Faults)}
}

// CreateTable creates an empty table (idempotent).
func (s *Service) CreateTable(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		s.tables[name] = make(map[string][]byte)
	}
}

// Put stores value under key: the write whose condition always holds. Like
// s3.put, the write becomes visible — and the completion signal fires — only
// after the write latency elapsed: waiters parked on the signal must not
// observe (or be woken by) a write the writer is still paying for. An item
// over MaxItemBytes is refused before anything else.
func (s *Service) Put(env simenv.Env, table, key string, value []byte) error {
	return s.write(env, faults.OpDynamoPut, table, key, value, nil)
}

// PutIf stores value under key only when the item's current state matches
// expect: nil expect requires the item to not exist; otherwise the stored
// value must equal expect byte-for-byte. The check and the store are atomic
// under the service lock and happen — like Put's write — after the write
// latency elapsed, so the condition is evaluated at the instant the write
// becomes visible. DynamoDB's conditional write, the primitive the driver's
// query-epoch fence increments through. A failed condition is billed like a
// write (DynamoDB charges failed conditional writes) and returns
// ErrConditionFailed. An item over MaxItemBytes is refused as by Put.
func (s *Service) PutIf(env simenv.Env, table, key string, value, expect []byte) error {
	return s.write(env, faults.OpDynamoPutIf, table, key, value, func(cur []byte, exists bool) bool {
		if expect == nil {
			return !exists
		}
		return exists && bytes.Equal(cur, expect)
	})
}

// write is Put's and PutIf's one path, drawing its faults from op's stream:
// the size check, an injected throttle, the table check, the charge, the
// write latency, then — under the lock — the condition (nil always holds)
// and the store, and last the completion signal: pollers parked on this
// item's topic wake, pipelined stage workers on the ready marker it may be.
func (s *Service) write(env simenv.Env, op, table, key string, value []byte, cond func(cur []byte, exists bool) bool) error {
	if err := fits(table, key, value); err != nil {
		return err
	}
	if _, err := s.ep.Fault(env, op, obs.Cost{DynamoWrites: 1}, s.cfg.WriteLatency); err != nil {
		return err
	}
	s.mu.Lock()
	t, ok := s.tables[table]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	s.ep.Request(env, obs.Cost{DynamoWrites: 1}, s.cfg.WriteLatency)
	s.mu.Lock()
	if cur, exists := t[key]; cond != nil && !cond(cur, exists) {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrConditionFailed, table, key)
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	t[key] = cp
	s.mu.Unlock()
	simenv.BroadcastKey(env, "dynamo/"+table+"/"+key)
	return nil
}

// Get returns the value under key.
func (s *Service) Get(env simenv.Env, table, key string) ([]byte, error) {
	if _, err := s.ep.Fault(env, faults.OpDynamoGet, obs.Cost{DynamoReads: 1}, s.cfg.ReadLatency); err != nil {
		return nil, err
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
	s.ep.Request(env, obs.Cost{DynamoReads: 1}, s.cfg.ReadLatency)
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
	s.ep.Request(env, obs.Cost{DynamoWrites: 1}, s.cfg.WriteLatency)
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
	s.ep.Request(env, obs.Cost{DynamoReads: n}, s.cfg.ReadLatency)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
