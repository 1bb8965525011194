package lambdasvc

import (
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/simclock"
)

// TestInjectedCrashOnInvoke: the container starts and dies before the
// handler runs. The invoker sees a successful Invoke (asynchronous), no
// completion callback fires, and the container does not join the warm pool.
func TestInjectedCrashOnInvoke(t *testing.T) {
	k := simclock.New()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindCrash, Count: 1},
	}})
	s := New(Config{Faults: inj}, SimRuntime{K: k})
	ran := 0
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		ran++
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		if err := s.Invoke(p, "f", nil, InvokeOptions{}); err != nil {
			t.Errorf("crashed invocation returned error to invoker: %v", err)
		}
		if err := s.Invoke(p, "f", nil, InvokeOptions{}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if ran != 1 {
		t.Errorf("handler ran %d times, want 1 (first invocation crashed)", ran)
	}
	if s.Running() != 0 {
		t.Errorf("running = %d after crash, want 0 (slot released)", s.Running())
	}
	if total, cold := s.Invocations(); total != 2 || cold != 2 {
		// The crashed container never joined the warm pool, so the second
		// invocation is cold again.
		t.Errorf("invocations = %d/%d cold, want 2/2", total, cold)
	}
}

// TestInjectedCrashMidRun: the worker dies Delay into its handler — work
// before the crash instant survives, work after never happens, and the
// container is not reused.
func TestInjectedCrashMidRun(t *testing.T) {
	k := simclock.New()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Delay: 3 * time.Second, Count: 1},
	}})
	s := New(Config{Faults: inj}, SimRuntime{K: k})
	var before, after int
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		ctx.Env.Sleep(time.Second)
		before++ // 1s in: still alive
		ctx.Env.Sleep(10 * time.Second)
		after++ // would be 11s in: the container died at 3s
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		if err := s.Invoke(p, "f", nil, InvokeOptions{}); err != nil {
			t.Error(err)
		}
	})
	end := k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if before != 1 || after != 0 {
		t.Errorf("before/after crash = %d/%d, want 1/0", before, after)
	}
	if s.Running() != 0 {
		t.Errorf("running = %d, want 0", s.Running())
	}
	if end != 3*time.Second {
		t.Errorf("virtual end = %v, want 3s (partial run billed to the crash instant)", end)
	}
}

// TestInjectedColdSpike delays the container start by Delay.
func TestInjectedColdSpike(t *testing.T) {
	k := simclock.New()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindColdSpike, Delay: 5 * time.Second, Count: 1},
	}})
	s := New(Config{Faults: inj}, SimRuntime{K: k})
	var startedAt time.Duration
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		startedAt = ctx.Env.Now()
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		if err := s.Invoke(p, "f", nil, InvokeOptions{}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if startedAt != 5*time.Second {
		t.Errorf("handler started at %v, want 5s (injected spike, zero base latencies)", startedAt)
	}
}

// TestInjectedTransientInvoke: an Invoke request that fails with an injected
// 500 is billed and fails under the lambda prefix, and invokes nothing: no
// handler runs, no invocation or cold start is counted, and the warm
// container it took goes back to the pool for the next invocation.
func TestInjectedTransientInvoke(t *testing.T) {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindTransient, Skip: 1, Count: 1},
	}})
	s := New(Config{Meter: meter, Faults: inj}, SimRuntime{K: k})
	ran := 0
	s.CreateFunction("f", 1792, time.Minute, func(ctx *Ctx, _ []byte) error {
		ran++
		return nil
	})
	k.Go("driver", func(p *simclock.Proc) {
		for i := 0; i < 3; i++ {
			err := s.Invoke(p, "f", nil, InvokeOptions{})
			if want := i == 1; want != (err != nil) {
				t.Errorf("invoke %d: err = %v", i, err)
			}
			if i == 1 && (!errors.Is(err, faults.ErrInternal) || err.Error() != "lambda: injected internal error (500)") {
				t.Errorf("err = %v, want lambda's injected 500", err)
			}
			p.Sleep(time.Second)
		}
	})
	k.Run()
	if ran != 2 || s.Running() != 0 {
		t.Errorf("handler ran %d times, %d running; want 2, 0", ran, s.Running())
	}
	if total, cold := s.Invocations(); total != 2 || cold != 1 {
		t.Errorf("invocations = %d/%d cold, want 2/1 (the failed request hands its warm container back)", total, cold)
	}
	if got := meter.Cost().LambdaInvokes; got != 3 {
		t.Errorf("billed %d invoke requests, want 3", got)
	}
}
