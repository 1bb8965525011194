package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/simclock"
)

// recordEnv is a deterministic test clock: Sleep advances Now and records
// the schedule, so backoff sequences can be compared exactly.
type recordEnv struct {
	now    time.Duration
	sleeps []time.Duration
}

func (e *recordEnv) Now() time.Duration { return e.now }
func (e *recordEnv) Sleep(d time.Duration) {
	e.now += d
	e.sleeps = append(e.sleeps, d)
}

var errRegisteredSentinel = errors.New("registered transient")

func init() { RegisterRetryable(errRegisteredSentinel) }

func TestClassify(t *testing.T) {
	if Classify(nil) != ClassFatal {
		t.Error("nil should classify fatal")
	}
	for _, sentinel := range []error{faults.ErrInternal, faults.ErrTimeout, faults.ErrThrottled} {
		if Classify(sentinel) != ClassRetryable {
			t.Errorf("%v should be retryable", sentinel)
		}
		if Classify(fmt.Errorf("svc: %w", sentinel)) != ClassRetryable {
			t.Errorf("wrapped %v should be retryable", sentinel)
		}
	}
	if Classify(errors.New("no such key")) != ClassFatal {
		t.Error("unknown errors should be fatal")
	}
	if Classify(fmt.Errorf("wrap: %w", errRegisteredSentinel)) != ClassRetryable {
		t.Error("registered sentinel should be retryable")
	}
}

func TestBudget(t *testing.T) {
	if NewBudget(0) != nil || NewBudget(-3) != nil {
		t.Error("non-positive budgets should be nil (unlimited)")
	}
	var unlimited *Budget
	for i := 0; i < 100; i++ {
		if !unlimited.Take() {
			t.Fatal("nil budget refused a take")
		}
	}
	b := NewBudget(2)
	if !b.Take() || !b.Take() {
		t.Error("budget of 2 refused early")
	}
	if b.Take() {
		t.Error("budget of 2 allowed a third take")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{Seed: 17}
	for attempt := 1; attempt <= 12; attempt++ {
		d1 := p.Backoff("s3.Get", attempt)
		d2 := p.Backoff("s3.Get", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v != %v", attempt, d1, d2)
		}
		if d1 < backoffBase || d1 > backoffCap {
			t.Errorf("attempt %d backoff %v outside [base, cap]", attempt, d1)
		}
	}
	if p.Backoff("s3.Get", 3) == p.Backoff("sqs.Send", 3) {
		t.Error("distinct ops should draw distinct jitter")
	}
	if p.Backoff("s3.Get", 3) == (Policy{Seed: 18}).Backoff("s3.Get", 3) {
		t.Error("distinct seeds should draw distinct jitter")
	}
}

// TestDoBackoffScheduleReplays: the same failing op under the same policy
// produces the identical virtual sleep schedule — the property chaos DES
// runs rely on.
func TestDoBackoffScheduleReplays(t *testing.T) {
	run := func() []time.Duration {
		env := &recordEnv{}
		p := Policy{Seed: 3}
		p.Do(env, "dynamo.Put", func() error { return faults.ErrThrottled })
		return env.sleeps
	}
	a, b := run(), run()
	if len(a) != maxRetries || len(b) != maxRetries {
		t.Fatalf("sleeps = %d/%d, want %d retries", len(a), len(b), maxRetries)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestDoFatalPassthrough(t *testing.T) {
	env := &recordEnv{}
	boom := errors.New("boom")
	calls := 0
	err := Policy{}.Do(env, "op", func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 || len(env.sleeps) != 0 {
		t.Errorf("fatal error retried: err=%v calls=%d sleeps=%d", err, calls, len(env.sleeps))
	}
}

func TestDoRecoversAfterTransients(t *testing.T) {
	env := &recordEnv{}
	calls := 0
	stats := &Stats{}
	err := Policy{Stats: stats}.Do(env, "s3.Get", func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("s3: %w", faults.ErrInternal)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	if stats.Retries() != 2 {
		t.Errorf("stats = %d retries, want 2", stats.Retries())
	}
}

func TestDoMaxRetriesExhaustion(t *testing.T) {
	env := &recordEnv{}
	err := Policy{}.Do(env, "s3.Get", func() error { return faults.ErrTimeout })
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if ex.BudgetSpent || ex.Attempts != maxRetries+1 || ex.Op != "s3.Get" {
		t.Errorf("exhausted = %+v", ex)
	}
	if !errors.Is(err, faults.ErrTimeout) {
		t.Error("ExhaustedError should unwrap to the last error")
	}
	if !IsExhausted(err) || !Retryable(err) {
		t.Error("exhaustion should be IsExhausted and Retryable from a higher scope")
	}
}

// TestDoBudgetExhaustion: a spent scope budget turns a retry storm into a
// typed failure — the worker-side graceful-degradation hook.
func TestDoBudgetExhaustion(t *testing.T) {
	env := &recordEnv{}
	b := NewBudget(2)
	err := Policy{Budget: b}.Do(env, "sqs.Send", func() error { return faults.ErrInternal })
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if !ex.BudgetSpent || ex.Attempts != 3 {
		t.Errorf("exhausted = %+v, want budget-spent after 3 attempts", ex)
	}
	if len(env.sleeps) != 2 {
		t.Errorf("slept %d times, want 2 (budget)", len(env.sleeps))
	}
}

// TestDoUnderSimclock: Do's waiting is pure virtual time on the DES kernel
// and replays exactly.
func TestDoUnderSimclock(t *testing.T) {
	run := func() time.Duration {
		k := simclock.New()
		var elapsed time.Duration
		k.Go("op", func(p *simclock.Proc) {
			calls := 0
			Policy{Seed: 9}.Do(p, "s3.Get", func() error {
				calls++
				if calls < 4 {
					return faults.ErrInternal
				}
				return nil
			})
			elapsed = p.Now()
		})
		k.Run()
		return elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("virtual elapsed %v vs %v", a, b)
	}
	if a <= 0 {
		t.Error("no virtual time elapsed across 3 backoffs")
	}
}
