package lambdasvc

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/simclock"
)

func TestCreateFunctionValidation(t *testing.T) {
	s := New(Config{}, &GoRuntime{})
	if err := s.CreateFunction("f", 64, time.Minute, nil); err == nil {
		t.Error("accepted 64 MiB function")
	}
	if err := s.CreateFunction("f", 4096, time.Minute, nil); err == nil {
		t.Error("accepted 4096 MiB function")
	}
	if err := s.CreateFunction("f", 1792, time.Minute, nil); err != nil {
		t.Errorf("rejected valid function: %v", err)
	}
}

func TestInvokeRunsHandlerGoRuntime(t *testing.T) {
	rt := &GoRuntime{}
	s := New(Config{}, rt)
	var ran atomic.Int32
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, payload []byte) error {
		if string(payload) != "hi" {
			t.Errorf("payload = %q", payload)
		}
		if ctx.WorkerID != 7 {
			t.Errorf("worker id = %d", ctx.WorkerID)
		}
		ran.Add(1)
		return nil
	})
	env := simenv.NewImmediate()
	if err := s.Invoke(env, "f", []byte("hi"), InvokeOptions{WorkerID: 7}); err != nil {
		t.Fatal(err)
	}
	rt.WaitIdle()
	if ran.Load() != 1 {
		t.Error("handler did not run")
	}
}

func TestInvokeMissingFunction(t *testing.T) {
	s := New(Config{}, &GoRuntime{})
	err := s.Invoke(simenv.NewImmediate(), "nope", nil, InvokeOptions{})
	if !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	k := simclock.New()
	s := New(Config{ConcurrencyLimit: 2}, SimRuntime{K: k})
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		ctx.Env.Sleep(time.Second)
		return nil
	})
	var rejected int
	k.Go("driver", func(p *simclock.Proc) {
		for i := 0; i < 5; i++ {
			if err := s.Invoke(p, "f", nil, InvokeOptions{WorkerID: i}); errors.Is(err, ErrTooManyRequests) {
				rejected++
			}
		}
	})
	k.Run()
	if rejected != 3 {
		t.Errorf("rejected = %d, want 3", rejected)
	}
}

func TestColdWarmAccounting(t *testing.T) {
	k := simclock.New()
	cfg := Config{
		ColdStart: netmodel.Constant(250 * time.Millisecond),
		WarmStart: netmodel.Constant(10 * time.Millisecond),
	}
	s := New(cfg, SimRuntime{K: k})
	var startTimes []time.Duration
	var colds []bool
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		startTimes = append(startTimes, ctx.Env.Now())
		colds = append(colds, ctx.Cold)
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		s.Invoke(p, "f", nil, InvokeOptions{}) // cold
		p.Sleep(time.Second)
		s.Invoke(p, "f", nil, InvokeOptions{}) // warm (container returned)
	})
	k.Run()
	if len(colds) != 2 || !colds[0] || colds[1] {
		t.Fatalf("cold flags = %v, want [true false]", colds)
	}
	total, cold := s.Invocations()
	if total != 2 || cold != 1 {
		t.Errorf("invocations = %d/%d cold", total, cold)
	}
	if startTimes[0] != 250*time.Millisecond {
		t.Errorf("cold start at %v, want 250ms", startTimes[0])
	}
}

func TestBillingGBSeconds(t *testing.T) {
	meter := pricing.NewCostMeter()
	k := simclock.New()
	s := New(Config{Meter: meter}, SimRuntime{K: k})
	s.CreateFunction("f", 2048, time.Minute, func(ctx *Ctx, _ []byte) error {
		ctx.Env.Sleep(10 * time.Second)
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) { s.Invoke(p, "f", nil, InvokeOptions{}) })
	k.Run()
	got := float64(meter.Get(pricing.LabelLambdaDuration))
	want := 10 * 3.33334e-5 // §4.4.4: 2 GiB worker = $3.3e-5/s
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("duration cost = %v, want ~%v", got, want)
	}
	if meter.Count(pricing.LabelLambdaRequests) != 1 {
		t.Error("missing request charge")
	}
}

// TestTimeoutReported: a handler that runs past its function's timeout is
// billed for the timeout, and its invocation span says it timed out.
func TestTimeoutReported(t *testing.T) {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	s := New(Config{Meter: meter}, SimRuntime{K: k})
	tr := obs.New()
	s.SetTracer(tr)
	s.CreateFunction("f", 1792, time.Second, func(ctx *Ctx, _ []byte) error {
		ctx.Env.Sleep(time.Minute)
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		s.Invoke(p, "f", nil, InvokeOptions{})
	})
	k.Run()
	if got, want := meter.Cost().LambdaMiBNs, int64(1792)*int64(time.Second); got != want {
		t.Errorf("billed %d MiB·ns, want the timeout's %d", got, want)
	}
	if spans := tr.Spans(); len(spans) == 0 || spans[0].Tags["timeout"] != "true" {
		t.Errorf("invocation span not tagged as timed out: %+v", spans)
	}
}

func TestComputeScalesWithMemory(t *testing.T) {
	// Figure 4 end-to-end through the service: the same work takes 3.5x
	// longer on a 512 MiB function than on a 1792 MiB one.
	durations := map[int]time.Duration{}
	for _, mem := range []int{512, 1792} {
		k := simclock.New()
		s := New(Config{}, SimRuntime{K: k})
		var dur time.Duration
		s.CreateFunction("f", mem, time.Minute, func(ctx *Ctx, _ []byte) error {
			start := ctx.Env.Now()
			ctx.Compute(1.0, 1)
			dur = ctx.Env.Now() - start
			return nil
		})
		k.Go("driver", func(p *simclock.Proc) { s.Invoke(p, "f", nil, InvokeOptions{}) })
		k.Run()
		durations[mem] = dur
	}
	ratio := durations[512].Seconds() / durations[1792].Seconds()
	if math.Abs(ratio-3.5) > 0.05 {
		t.Errorf("512/1792 ratio = %.2f, want 3.5", ratio)
	}
}

func TestInvokeLatencyChargedToCaller(t *testing.T) {
	k := simclock.New()
	s := New(Config{InvokeLatency: netmodel.Constant(36 * time.Millisecond)}, SimRuntime{K: k})
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error { return nil })
	var elapsed time.Duration
	k.Go("driver", func(p *simclock.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			s.Invoke(p, "f", nil, InvokeOptions{})
		}
		elapsed = p.Now() - start
	})
	k.Run()
	if want := 360 * time.Millisecond; elapsed != want {
		t.Errorf("10 sequential invokes took %v, want %v", elapsed, want)
	}
}

func TestManyWorkersSimRuntime(t *testing.T) {
	k := simclock.New()
	s := New(Config{}, SimRuntime{K: k})
	var count int
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		ctx.Env.Sleep(time.Second)
		count++
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		for i := 0; i < 1000; i++ {
			if err := s.Invoke(p, "f", nil, InvokeOptions{WorkerID: i}); err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
		}
	})
	k.Run()
	if count != 1000 {
		t.Errorf("count = %d", count)
	}
	if s.Running() != 0 {
		t.Errorf("running = %d after completion", s.Running())
	}
}

// TestPayloadLimit: an asynchronous payload of MaxAsyncPayloadBytes is
// invoked; one byte more is refused with the typed, non-retryable
// ErrPayloadTooLarge, before the service counts or bills the invocation or
// draws a start delay for it.
func TestPayloadLimit(t *testing.T) {
	meter := pricing.NewCostMeter()
	rt := &GoRuntime{}
	s := New(Config{Meter: meter}, rt)
	var ran atomic.Int32
	if err := s.CreateFunction("f", 1792, time.Minute, func(*Ctx, []byte) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	env := simenv.NewImmediate()
	if err := s.Invoke(env, "f", make([]byte, MaxAsyncPayloadBytes), InvokeOptions{}); err != nil {
		t.Fatalf("a payload at the limit: %v", err)
	}
	rt.WaitIdle()
	err := s.Invoke(env, "f", make([]byte, MaxAsyncPayloadBytes+1), InvokeOptions{})
	switch {
	case !errors.Is(err, ErrPayloadTooLarge):
		t.Fatalf("a payload one byte over the limit: err = %v, want ErrPayloadTooLarge", err)
	case resilience.Retryable(err):
		t.Errorf("ErrPayloadTooLarge classified retryable")
	}
	rt.WaitIdle()
	if total, _ := s.Invocations(); total != 1 || ran.Load() != 1 {
		t.Errorf("%d invocations counted, %d ran; want the one at the limit", total, ran.Load())
	}
	if n := meter.Count(pricing.LabelLambdaRequests); n != 1 {
		t.Errorf("%d Invoke requests billed, want 1", n)
	}
}
