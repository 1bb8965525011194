// Package resilience is the one retry/backoff/budget layer of the Lambada
// substrate — the systematic form of the paper's "aggressive timeouts and
// retries" against cloud services that throttle, drop and kill (§5.5,
// footnote 17). Policy.Do is the only retry loop in the tree and opens every
// substrate call's op span: SQS, DynamoDB and Lambda calls run under it
// directly, S3 calls through their client (s3.WithPolicy), on the driver as
// in a worker. It provides:
//
//   - classification of errors into retryable (transient server failures,
//     throttling) and fatal (everything else — wrong answers must not be
//     retried into existence);
//   - a Policy running operations under capped exponential backoff with
//     decorrelated jitter: virtual-time-safe because all waiting goes through
//     simenv.Env.Sleep, and a pure hash of (seed, op, attempt) — never a draw
//     from a service's latency sampler, so a retry moves nobody else's clock;
//   - a Budget bounding the total retries a scope (one worker invocation,
//     the driver side of one query) may spend, so a persistently failing
//     substrate turns into a typed ExhaustedError — graceful degradation
//     upstream — instead of an unbounded retry storm.
//
// Every retried request still reaches the simulated service and is billed
// through the pricing meter: retries are real requests in the paper's cost
// model.
package resilience

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/simenv"
	"lambada/internal/obs"
)

// Class is an error's retry classification.
type Class int

const (
	// ClassFatal errors are returned immediately; retrying cannot help
	// (missing keys, failed conditional writes, malformed requests) or must
	// be decided by a higher layer (concurrency-limit rejections are a
	// quota, not a transient — the paper raised the limit via support
	// ticket, not by hammering the API).
	ClassFatal Class = iota
	// ClassRetryable errors are transient server-side failures worth
	// retrying with backoff.
	ClassRetryable
)

// registry holds retryable sentinels registered by service packages (which
// import resilience, so resilience cannot import them).
var (
	registryMu sync.RWMutex
	registry   []error
)

// RegisterRetryable marks err (and everything wrapping it) retryable for the
// default classifier. Service packages call it from init for their own
// transient sentinels (s3.ErrSlowDown, exchange timeouts).
func RegisterRetryable(err error) {
	registryMu.Lock()
	registry = append(registry, err)
	registryMu.Unlock()
}

// Classify is the default classifier: the fault-injection sentinels and all
// registered service sentinels are retryable, everything else fatal.
func Classify(err error) Class {
	if err == nil {
		return ClassFatal
	}
	if errors.Is(err, faults.ErrInternal) || errors.Is(err, faults.ErrTimeout) || errors.Is(err, faults.ErrThrottled) {
		return ClassRetryable
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	for _, r := range registry {
		if errors.Is(err, r) {
			return ClassRetryable
		}
	}
	return ClassFatal
}

// Budget bounds the total retries of one scope. A nil Budget is unlimited.
type Budget struct {
	mu        sync.Mutex
	remaining int
}

// NewBudget returns a budget of n retries. n <= 0 returns nil (unlimited).
func NewBudget(n int) *Budget {
	if n <= 0 {
		return nil
	}
	return &Budget{remaining: n}
}

// Take consumes one retry; false means the budget is spent.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		return false
	}
	b.remaining--
	return true
}

// ExhaustedError reports that an operation stayed retryable past its
// attempt bound or retry budget — the typed failure upstream degradation
// hooks on (a worker posts it as a retryable failure seal; the scheduler
// re-invokes through the attempt machinery). Unwrap exposes the last
// underlying error, so errors.Is sees through it.
type ExhaustedError struct {
	Op       string
	Attempts int
	// BudgetSpent marks exhaustion of the scope-wide retry budget rather
	// than the per-operation attempt bound.
	BudgetSpent bool
	Last        error
}

func (e *ExhaustedError) Error() string {
	cause := "retry attempts exhausted"
	if e.BudgetSpent {
		cause = "retry budget exhausted"
	}
	return fmt.Sprintf("resilience: %s after %d attempts of %s: %v", cause, e.Attempts, e.Op, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// IsExhausted reports whether err carries an ExhaustedError.
func IsExhausted(err error) bool {
	var ex *ExhaustedError
	return errors.As(err, &ex)
}

// Retryable reports whether err is worth a fresh attempt from a HIGHER
// scope: either directly retryable, or a lower scope's exhaustion of its
// own budget (the worker gave up, but a re-invoked worker gets a fresh
// budget). Workers use it to decide the Retryable flag of a failure seal.
func Retryable(err error) bool {
	return Classify(err) == ClassRetryable || IsExhausted(err)
}

// Stats counts retries performed under a policy, for reports.
type Stats struct {
	mu      sync.Mutex
	retries int64
}

// Add records n retries.
func (s *Stats) Add(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retries += n
	s.mu.Unlock()
}

// Retries returns the total retries recorded.
func (s *Stats) Retries() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

const (
	// backoffBase is the first backoff delay.
	backoffBase = 25 * time.Millisecond
	// backoffCap bounds a single backoff delay.
	backoffCap = 2 * time.Second
	// maxRetries bounds the retries of one operation.
	maxRetries = 10
)

// Policy runs operations under classification, capped exponential backoff
// with decorrelated jitter, and an optional shared budget. The zero value
// is usable.
type Policy struct {
	// Budget, when non-nil, is the scope-wide retry bound shared by every
	// operation run under this policy.
	Budget *Budget
	// Seed derives the deterministic jitter stream.
	Seed int64
	// Stats, when non-nil, accumulates retry counts for reporting.
	Stats *Stats
	// Trace, when non-nil, wraps each Do in an op span (named opName,
	// tagged with retries consumed and outcome) under the span currently
	// bound to the calling environment. Ops with no bound span are not
	// traced, so setup traffic stays out of query traces.
	Trace *obs.Tracer
}

// Backoff returns the delay before retry attempt (1-based) of op:
// decorrelated jitter — each delay drawn uniformly from [backoffBase,
// 3×previous], capped at backoffCap — per the AWS architecture blog's recommendation, with the draw a
// pure hash of (seed, op, attempt), the fault injector's own (faults.Draw),
// so backoff schedules replay wherever the fault schedule does.
func (p Policy) Backoff(op string, attempt int) time.Duration {
	prev := backoffBase
	d := backoffBase
	for i := 1; i <= attempt; i++ {
		lo, hi := float64(backoffBase), 3*float64(prev)
		u := faults.Draw(p.Seed, 0x7265736c69656e63, op, uint64(i)) // salt "reslienc"
		d = min(time.Duration(lo+u*(hi-lo)), backoffCap)
		prev = d
	}
	return d
}

// Do runs op under the policy: retryable errors back off and retry until
// they succeed, turn fatal, exhaust maxRetries, or exhaust the budget; the
// two exhaustion cases return an *ExhaustedError wrapping the last error.
// All waiting is virtual-time via env.Sleep, so DES runs stay deterministic.
func (p Policy) Do(env simenv.Env, opName string, op func() error) error {
	var sp obs.SpanID
	if p.Trace != nil {
		if parent := p.Trace.Current(env); parent != 0 {
			sp = p.Trace.StartSpan(obs.KindOp, opName, parent, env.Now())
			p.Trace.Bind(env, sp)
		}
	}
	retries := 0
	var err error
	defer func() {
		if sp == 0 {
			return
		}
		if retries > 0 {
			p.Trace.SetTag(sp, "retries", strconv.Itoa(retries))
		}
		if err != nil {
			if IsExhausted(err) {
				p.Trace.SetTag(sp, "outcome", "exhausted")
			} else {
				p.Trace.SetTag(sp, "outcome", "error")
			}
		}
		p.Trace.Pop(env)
		p.Trace.EndSpan(sp, env.Now())
	}()
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || Classify(err) != ClassRetryable {
			return err
		}
		if attempt >= maxRetries {
			err = &ExhaustedError{Op: opName, Attempts: attempt + 1, Last: err}
			return err
		}
		if !p.Budget.Take() {
			err = &ExhaustedError{Op: opName, Attempts: attempt + 1, BudgetSpent: true, Last: err}
			return err
		}
		p.Stats.Add(1)
		retries++
		env.Sleep(p.Backoff(opName, attempt+1))
	}
}
