package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var woke time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := k.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("run ended at %v, want 5s", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	k := New()
	order := []string{}
	k.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		order = append(order, "a")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "b")
	})
	end := k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v, want [a b]", order)
	}
	if end != 0 {
		t.Errorf("time advanced to %v on zero sleeps", end)
	}
}

func TestDeterministicSameInstantOrder(t *testing.T) {
	// Processes scheduled at the same instant must run in spawn order,
	// every time.
	for trial := 0; trial < 20; trial++ {
		k := New()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			k.Go("p", func(p *Proc) {
				p.Sleep(time.Second)
				order = append(order, i)
			})
		}
		k.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: order[%d] = %d", trial, i, v)
			}
		}
	}
}

func TestGoFromRunningProcess(t *testing.T) {
	k := New()
	var childRan bool
	var childTime time.Duration
	k.Go("parent", func(p *Proc) {
		p.Sleep(time.Minute)
		k.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
			childTime = c.Now()
		})
		p.Sleep(time.Hour)
	})
	k.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
	if want := time.Minute + time.Second; childTime != want {
		t.Errorf("child finished at %v, want %v", childTime, want)
	}
}

func TestGoAt(t *testing.T) {
	k := New()
	var at time.Duration
	k.GoAt(3*time.Second, "late", func(p *Proc) { at = p.Now() })
	k.Run()
	if at != 3*time.Second {
		t.Errorf("started at %v, want 3s", at)
	}
}

// TestSignalBroadcastWakesAll: one broadcast of the completion signal wakes
// every parked process, however long their timers had left to run.
func TestSignalBroadcastWakesAll(t *testing.T) {
	k := New()
	woken := 0
	for i := 0; i < 10; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			if armPark(p, "", time.Duration(i+1)*time.Hour) {
				woken++
			}
		})
	}
	k.Go("broadcaster", func(p *Proc) {
		p.Sleep(time.Second)
		if len(k.compWaiters) != 10 {
			t.Errorf("waiting = %d, want 10", len(k.compWaiters))
		}
		p.NotifyKey("")
	})
	if end := k.Run(); end != time.Second {
		t.Errorf("final time %v, want 1s", end)
	}
	if woken != 10 {
		t.Errorf("woken = %d, want 10", woken)
	}
	if k.Deadlocked() {
		t.Error("kernel reports deadlock")
	}
}

// TestDeadlockDetection: a live process parked with no wake-up scheduled
// ends the run and is reported. Sleep and Park both arm a timer, so
// only a kernel bug gets a process there; the test parks one by hand.
func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.Go("stuck", func(p *Proc) { p.yield() })
	k.Go("fine", func(p *Proc) { p.Sleep(time.Second) })
	if end := k.Run(); end != time.Second {
		t.Errorf("final time %v, want 1s", end)
	}
	if !k.Deadlocked() {
		t.Error("expected deadlock report for a process nothing will wake")
	}
}

func TestStepsCounted(t *testing.T) {
	k := New()
	k.Go("p", func(p *Proc) {
		p.Sleep(time.Second)
		p.Sleep(time.Second)
	})
	k.Run()
	// spawn event + two sleeps = 3 dispatches
	if k.Steps() != 3 {
		t.Errorf("steps = %d, want 3", k.Steps())
	}
}

// Property: for any set of sleep durations, the kernel finishes at the
// maximum duration and every process observes its own total.
func TestPropertyParallelSleepsFinishAtMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := New()
		var max time.Duration
		ok := true
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d > max {
				max = d
			}
			k.Go("p", func(p *Proc) {
				start := p.Now()
				p.Sleep(d)
				if p.Now()-start != d {
					ok = false
				}
			})
		}
		return k.Run() == max && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sequential sleeps accumulate exactly.
func TestPropertySequentialSleepsAccumulate(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		k := New()
		var want time.Duration
		for _, r := range raw {
			want += time.Duration(r) * time.Microsecond
		}
		k.Go("p", func(p *Proc) {
			for _, r := range raw {
				p.Sleep(time.Duration(r) * time.Microsecond)
			}
		})
		return k.Run() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestManyProcessesScale(t *testing.T) {
	k := New()
	const n = 10000
	count := 0
	for i := 0; i < n; i++ {
		k.Go("p", func(p *Proc) {
			p.Sleep(time.Second)
			count++
		})
	}
	k.Run()
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
}

// TestSignalWaitTimeoutBroadcastWins: a broadcast before the timer fires
// wakes the waiter at the broadcast instant with the timer cancelled.
func TestSignalWaitTimeoutBroadcastWins(t *testing.T) {
	k := New()
	var notified bool
	var wokeAt time.Duration
	k.Go("waiter", func(p *Proc) {
		notified = armPark(p, "", time.Minute)
		wokeAt = p.Now()
	})
	k.Go("caster", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.NotifyKey("")
	})
	end := k.Run()
	if !notified {
		t.Error("waiter timed out despite the broadcast")
	}
	if wokeAt != 3*time.Second {
		t.Errorf("woke at %v, want the broadcast instant 3s", wokeAt)
	}
	// The cancelled one-minute timer must not have dragged virtual time out.
	if end != 3*time.Second {
		t.Errorf("final time %v, want 3s (stale timer dispatched?)", end)
	}
}

// TestSignalWaitTimeoutExpires: with no broadcast the waiter resumes at the
// timeout, and a later broadcast must not wake it again.
func TestSignalWaitTimeoutExpires(t *testing.T) {
	k := New()
	wakeups := 0
	k.Go("waiter", func(p *Proc) {
		if armPark(p, "", 2*time.Second) {
			t.Error("spurious notification")
		}
		wakeups++
		if got := p.Now(); got != 2*time.Second {
			t.Errorf("timed out at %v, want 2s", got)
		}
		p.Sleep(10 * time.Second) // outlive the late broadcast
	})
	k.Go("late", func(p *Proc) {
		p.Sleep(5 * time.Second)
		if n := len(k.compWaiters); n != 0 {
			t.Errorf("%d waiters left registered after timeout", n)
		}
		p.NotifyKey("") // waiter has withdrawn; nobody should wake
	})
	k.Run()
	if wakeups != 1 {
		t.Errorf("wakeups = %d, want 1", wakeups)
	}
}

// TestProcWaitNotify: the kernel-wide completion signal wakes WaitNotify
// parkers at the broadcasting process's instant, and times out otherwise.
func TestProcWaitNotify(t *testing.T) {
	k := New()
	var first, second bool
	var firstAt time.Duration
	k.Go("waiter", func(p *Proc) {
		first = armPark(p, "", time.Minute)
		firstAt = p.Now()
		second = armPark(p, "", time.Second) // nothing else fires: times out
	})
	k.Go("producer", func(p *Proc) {
		p.Sleep(700 * time.Millisecond)
		p.NotifyKey("")
	})
	k.Run()
	if !first || firstAt != 700*time.Millisecond {
		t.Errorf("first wait: notified=%v at %v, want notified at 700ms", first, firstAt)
	}
	if second {
		t.Error("second wait notified with no broadcaster")
	}
}

// TestSignalWaitTimeoutDeterministic: many waiters with interleaved timers
// and broadcasts resolve identically across runs.
func TestSignalWaitTimeoutDeterministic(t *testing.T) {
	run := func() (string, time.Duration) {
		k := New()
		order := ""
		for i := 0; i < 5; i++ {
			i := i
			k.Go("waiter", func(p *Proc) {
				// Odd waiters time out before the broadcast at 4s.
				d := time.Duration(i+1) * time.Second
				if i%2 == 0 {
					d = time.Minute
				}
				if armPark(p, "", d) {
					order += string(rune('A' + i))
				} else {
					order += string(rune('a' + i))
				}
			})
		}
		k.Go("caster", func(p *Proc) {
			p.Sleep(4 * time.Second)
			p.NotifyKey("")
		})
		end := k.Run()
		return order, end
	}
	o1, e1 := run()
	o2, e2 := run()
	if o1 != o2 || e1 != e2 {
		t.Errorf("non-deterministic: (%q,%v) vs (%q,%v)", o1, e1, o2, e2)
	}
	if o1 != "bdACE" {
		t.Errorf("order = %q, want timeouts b(2s), d(4s pre-broadcast seq) then notified A C E", o1)
	}
}
