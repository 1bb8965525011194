package simclock

import (
	"testing"
	"time"
)

// TestWaitNotifyKeyTopicMatching: a keyed broadcast wakes only the
// waiters whose topic prefix-matches the written key; everyone else
// sleeps through to their timeout.
func TestWaitNotifyKeyTopicMatching(t *testing.T) {
	k := New()
	woke := map[string]bool{}
	park := func(name, topic string) {
		k.Go(name, func(p *Proc) {
			woke[name] = p.WaitNotifyKey(topic, time.Minute)
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
			if p.WaitNotifyKey(tp, time.Minute) {
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

// TestSetCompletionKeyingOff restores the pre-keying behavior: every
// broadcast wakes every waiter, and the wakeup counter shows the cost.
func TestSetCompletionKeyingOff(t *testing.T) {
	run := func(keyed bool) uint64 {
		k := New()
		k.SetCompletionKeying(keyed)
		for i := 0; i < 4; i++ {
			k.Go("waiter", func(p *Proc) {
				// Re-park on an unmatched topic until the deadline: each
				// unkeyed broadcast wakes all four, keyed wakes none.
				for p.Now() < 10*time.Second {
					p.WaitNotifyKey("never/matched", time.Second)
				}
			})
		}
		k.Go("writer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Second)
				p.NotifyKey("some/other/key")
			}
		})
		k.Run()
		return k.CompletionWakeups()
	}
	unkeyed := run(false)
	keyed := run(true)
	if keyed != 0 {
		t.Errorf("keyed run woke %d waiters on unmatched topic, want 0", keyed)
	}
	if unkeyed != 20 {
		t.Errorf("unkeyed run woke %d waiters, want 20 (5 broadcasts x 4 waiters)", unkeyed)
	}
}

// TestWaitNotifyKeyTimeoutWithdraws: a timed-out waiter is removed from
// the waiter list, so a later broadcast does not wake (or count) it.
func TestWaitNotifyKeyTimeoutWithdraws(t *testing.T) {
	k := New()
	var got bool
	k.Go("waiter", func(p *Proc) {
		got = p.WaitNotifyKey("t/", 100*time.Millisecond)
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
