package simclock

import (
	"testing"
	"time"
)

// armPark is the wait a barrier with nothing to check makes: Arm, then Park.
func armPark(p *Proc, topic string, d time.Duration) bool {
	p.Arm(topic)
	return p.Park(d)
}

// TestWaitNotifyKeyTopicMatching: a keyed broadcast wakes only the
// waiters whose topic prefix-matches the written key; everyone else
// sleeps through to their timeout.
func TestWaitNotifyKeyTopicMatching(t *testing.T) {
	k := New()
	woke := map[string]bool{}
	park := func(name, topic string) {
		k.Go(name, func(p *Proc) {
			woke[name] = armPark(p, topic, time.Minute)
		})
	}
	park("exact", "s3/bucket-a/key-1")
	park("prefix", "s3/bucket-a/")
	park("wildcard", "")
	park("other", "s3/bucket-b/")
	k.Go("writer", func(p *Proc) {
		p.Sleep(time.Second)
		p.NotifyKey("s3/bucket-a/key-1")
	})
	k.Run()
	want := map[string]bool{"exact": true, "prefix": true, "wildcard": true, "other": false}
	for name, w := range want {
		if woke[name] != w {
			t.Errorf("%s: woke=%v, want %v", name, woke[name], w)
		}
	}
	if got := k.CompletionWakeups(); got != 3 {
		t.Errorf("CompletionWakeups = %d, want 3", got)
	}
}

// TestNotifyAllWakesEveryTopic: the wildcard broadcast ignores topics.
func TestNotifyAllWakesEveryTopic(t *testing.T) {
	k := New()
	woken := 0
	for _, topic := range []string{"a/", "b/", ""} {
		tp := topic
		k.Go("w-"+tp, func(p *Proc) {
			if armPark(p, tp, time.Minute) {
				woken++
			}
		})
	}
	k.Go("writer", func(p *Proc) {
		p.Sleep(time.Second)
		p.NotifyKey("")
	})
	k.Run()
	if woken != 3 {
		t.Errorf("woke %d waiters, want 3", woken)
	}
}

// TestArmedWaitTakesBroadcastDuringCheck: a barrier arms its topic, then
// checks — a request's latency, slept — and a broadcast lands during the
// check. The park after it returns true at the instant the check ends, with
// no virtual time passing: the write is not missed until the next poll.
func TestArmedWaitTakesBroadcastDuringCheck(t *testing.T) {
	k := New()
	var woke bool
	var checked, returned time.Duration
	k.Go("barrier", func(p *Proc) {
		p.Arm("dynamo/stages/q1/e1/s2")
		p.Sleep(20 * time.Millisecond) // the check: a Get in flight
		checked = p.Now()
		woke = p.Park(time.Second)
		returned = p.Now()
	})
	k.Go("driver", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.NotifyKey("dynamo/stages/q1/e1/s2")
	})
	k.Run()
	if !woke {
		t.Error("the park missed the broadcast that landed during the check")
	}
	if checked != 20*time.Millisecond || returned != checked {
		t.Errorf("check ended at %v, park returned at %v: want both at 20ms", checked, returned)
	}
	if n := k.CompletionWakeups(); n != 1 {
		t.Errorf("CompletionWakeups = %d, want 1", n)
	}
}

// TestDisarmWithdraws: an entry whose check succeeded is withdrawn. A later
// broadcast neither takes nor counts it, the process is not scheduled twice,
// and it can arm again; an entry a broadcast already took withdraws as a
// no-op.
func TestDisarmWithdraws(t *testing.T) {
	k := New()
	var second bool
	k.Go("barrier", func(p *Proc) {
		p.Arm("t/")
		p.Sleep(10 * time.Millisecond)
		p.Disarm()                     // the check succeeded
		p.Sleep(20 * time.Millisecond) // a broadcast at 15ms finds no entry
		p.Arm("t/")
		p.Sleep(10 * time.Millisecond) // a broadcast at 35ms takes this one
		p.Disarm()
		p.Arm("t/")
		second = p.Park(time.Second) // nothing else fires: times out
	})
	k.Go("writer", func(p *Proc) {
		p.Sleep(15 * time.Millisecond)
		p.NotifyKey("t/x")
		p.Sleep(20 * time.Millisecond)
		p.NotifyKey("t/y")
	})
	end := k.Run()
	if k.Deadlocked() {
		t.Fatal("deadlocked")
	}
	if second {
		t.Error("a park after two withdrawn entries reported a broadcast")
	}
	if n := k.CompletionWakeups(); n != 1 {
		t.Errorf("CompletionWakeups = %d, want 1 (only the armed entry at 35ms)", n)
	}
	if end != 40*time.Millisecond+time.Second {
		t.Errorf("run ended at %v, want the last park's timeout at 1.04s", end)
	}
}

// TestWaitNotifyKeyTimeoutWithdraws: a timed-out waiter is removed from
// the waiter list, so a later broadcast does not wake (or count) it.
func TestWaitNotifyKeyTimeoutWithdraws(t *testing.T) {
	k := New()
	var got bool
	k.Go("waiter", func(p *Proc) {
		got = armPark(p, "t/", 100*time.Millisecond)
		p.Sleep(10 * time.Second) // stay alive past the broadcast
	})
	k.Go("writer", func(p *Proc) {
		p.Sleep(time.Second)
		p.NotifyKey("t/x")
	})
	k.Run()
	if got {
		t.Error("timed-out wait reported a broadcast")
	}
	if n := k.CompletionWakeups(); n != 0 {
		t.Errorf("CompletionWakeups = %d, want 0 (waiter had withdrawn)", n)
	}
}
