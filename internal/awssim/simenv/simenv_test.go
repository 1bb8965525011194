package simenv

import (
	"sync"
	"testing"
	"time"
)

func TestImmediateAccumulates(t *testing.T) {
	e := NewImmediate()
	e.Sleep(3 * time.Second)
	e.Sleep(2 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("now = %v, want 5s", e.Now())
	}
	e.Sleep(-time.Second) // negative is ignored
	if e.Now() != 5*time.Second {
		t.Errorf("now = %v after negative sleep", e.Now())
	}
}

func TestImmediateConcurrent(t *testing.T) {
	e := NewImmediate()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				e.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if e.Now() != 8*time.Second {
		t.Errorf("now = %v, want 8s", e.Now())
	}
}

// TestNotifyWakesSleepers: Notify must wake concurrent poll-sized sleeps
// promptly and race-free, and Sleep must still credit full virtual time.
func TestNotifyWakesSleepers(t *testing.T) {
	e := NewImmediate()
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			NotifyKey("")
		}
	}()
	wg.Wait()
	if e.Now() != iters*5*time.Millisecond {
		t.Errorf("now = %v, want %v", e.Now(), iters*5*time.Millisecond)
	}
}

// TestSleepWithoutSignalStillProgresses: a waiter whose work never arrives
// must not block on the signal forever — the pollGuard fallback bounds each
// poll-sized sleep.
func TestSleepWithoutSignalStillProgresses(t *testing.T) {
	e := NewImmediate()
	start := time.Now()
	for i := 0; i < 100; i++ {
		e.Sleep(25 * time.Millisecond) // poll-sized, no Notify anywhere
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Errorf("100 unsignaled poll sleeps took %v of real time", real)
	}
	if e.Now() != 2500*time.Millisecond {
		t.Errorf("now = %v", e.Now())
	}
}

// TestImmediateWaitNotify: every wake-up — notified or timed out — charges
// the full poll of virtual time (like the Sleep-based loop it replaces), so
// a waiter whose condition never turns true always progresses toward its
// virtual deadline, even under a storm of unrelated broadcasts.
func TestImmediateWaitNotify(t *testing.T) {
	e := NewImmediate()
	done := make(chan bool)
	go func() { done <- e.WaitNotifyKey("", time.Second) }()
	time.Sleep(2 * time.Millisecond)
	NotifyKey("")
	select {
	case <-done:
		if e.Now() != time.Second {
			t.Errorf("wake-up charged %v, want the full 1s poll", e.Now())
		}
	case <-time.After(time.Second):
		t.Fatal("WaitNotify never returned")
	}

	// With no broadcaster the guard expires; the charge is the same.
	before := e.Now()
	e.WaitNotifyKey("", 3*time.Second)
	if got := e.Now() - before; got != 3*time.Second {
		t.Errorf("timeout charged %v, want 3s", got)
	}
}

// plainEnv is an Env and nothing more: no Notifier, no keyed signal.
type plainEnv struct{}

func (plainEnv) Now() time.Duration  { return 0 }
func (plainEnv) Sleep(time.Duration) {}

// TestBroadcastFallsBackToNotify: Broadcast on a plain Env (no Notifier)
// must still wake Immediate waiters through the process-wide channel.
func TestBroadcastFallsBackToNotify(t *testing.T) {
	e := NewImmediate()
	done := make(chan bool)
	go func() { done <- e.WaitNotifyKey("", 10*time.Second) }()
	time.Sleep(2 * time.Millisecond)
	BroadcastKey(plainEnv{}, "") // implements Env only
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
}
