// Package simclock provides a deterministic discrete-event simulation (DES)
// kernel with virtual time.
//
// Processes are ordinary goroutines scheduled cooperatively: exactly one
// process runs at any instant, and control returns to the kernel whenever a
// process blocks on virtual time (Sleep) or on the keyed completion signal
// (WaitNotifyKey, woken by NotifyKey or its timeout) — the one
// synchronization primitive. Events at the same virtual instant are ordered
// by creation sequence, which makes every run deterministic regardless of
// how the Go runtime schedules goroutines.
//
// The kernel is the substrate for the cloud-service simulators in
// internal/awssim: worker fleets of thousands of serverless functions and
// multi-terabyte shuffles execute in milliseconds of wall-clock time while
// observing the calibrated latency, bandwidth, and pricing models.
package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Kernel is a discrete-event simulation scheduler. Construct with New.
type Kernel struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	parked chan struct{}
	live   int
	steps  uint64
	limits Limits
	// compWaiters are the processes parked in WaitNotifyKey, each with the
	// topic it subscribed to. compWakeups counts every process woken by a
	// completion broadcast — the contention metric the keyed signal exists
	// to reduce.
	compWaiters []compWaiter
	compWakeups uint64
	// unkeyedCompletion disables topic matching: every broadcast wakes
	// every waiter, the pre-keying behavior. Kept as a kernel flag so
	// regression tests can measure the keyed/unkeyed wakeup ratio.
	unkeyedCompletion bool
}

type compWaiter struct {
	p     *Proc
	topic string
}

// Limits bounds a simulation run to protect against runaway models.
type Limits struct {
	// MaxSteps aborts Run (with a panic) after this many dispatched events.
	// Zero means no limit.
	MaxSteps uint64
	// MaxTime aborts Run once virtual time passes this horizon. Zero means
	// no limit.
	MaxTime time.Duration
}

type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
	// gen is the process's event generation at schedule time; a mismatch at
	// dispatch means the event was cancelled (the process was woken through
	// another path: a completion broadcast superseding a timeout).
	gen uint64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{parked: make(chan struct{})}
}

// SetLimits installs run limits. Must be called before Run.
func (k *Kernel) SetLimits(l Limits) { k.limits = l }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Steps returns the number of events dispatched so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Proc is a simulated process. All methods must be called from the goroutine
// running the process body.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	done   bool
	// pending is true while the proc has a scheduled wake-up event; used to
	// detect double-scheduling bugs.
	pending bool
	// egen is the process's live event generation: cancelling a scheduled
	// wake-up (wakeCancel) bumps it, orphaning the heap entry.
	egen uint64
	// notified marks that the wake-up came from a completion broadcast
	// rather than the WaitNotifyKey timer.
	notified bool
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Go spawns a process that starts at the current virtual time. It may be
// called before Run or from within a running process.
func (k *Kernel) Go(name string, fn func(*Proc)) *Proc {
	return k.GoAt(k.now, name, fn)
}

// GoAt spawns a process that starts at the given absolute virtual time (or
// the current time, whichever is later).
func (k *Kernel) GoAt(at time.Duration, name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.live++
	if at < k.now {
		at = k.now
	}
	k.scheduleAt(at, p)
	go func() {
		<-p.resume
		defer func() {
			p.done = true
			k.live--
			k.parked <- struct{}{}
		}()
		fn(p)
	}()
	return p
}

func (k *Kernel) scheduleAt(at time.Duration, p *Proc) {
	if p.pending {
		panic(fmt.Sprintf("simclock: process %q scheduled twice", p.name))
	}
	p.pending = true
	k.seq++
	heap.Push(&k.events, event{at: at, seq: k.seq, p: p, gen: p.egen})
}

// Run dispatches events until no process has a scheduled wake-up. It returns
// the final virtual time. If processes remain alive but parked with no
// wake-up to come, Run returns anyway; Deadlocked reports it.
func (k *Kernel) Run() time.Duration {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(event)
		if e.p.done || e.gen != e.p.egen {
			continue // dead process, or a cancelled (superseded) wake-up
		}
		k.steps++
		if k.limits.MaxSteps > 0 && k.steps > k.limits.MaxSteps {
			panic("simclock: MaxSteps exceeded")
		}
		if k.limits.MaxTime > 0 && e.at > k.limits.MaxTime {
			panic("simclock: MaxTime exceeded")
		}
		k.now = e.at
		e.p.pending = false
		e.p.resume <- struct{}{}
		<-k.parked
	}
	return k.now
}

// Deadlocked reports whether live processes remain after Run returned, i.e.
// processes parked with no wake-up scheduled.
func (k *Kernel) Deadlocked() bool { return k.live > 0 }

// yield parks the process and hands control back to the kernel. The process
// must have arranged to be woken (a scheduled event or a waiter-list entry).
func (p *Proc) yield() {
	p.k.parked <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d of virtual time. Negative durations sleep
// zero time (the process still yields, letting same-instant events run in
// sequence order).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleAt(p.k.now+d, p)
	p.yield()
}

// Yield lets other processes scheduled at the same instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// wakeCancel wakes a parked process at the current instant, cancelling any
// wake-up it already has scheduled (a WaitNotifyKey timer superseded by the
// broadcast that arrived first).
func (k *Kernel) wakeCancel(p *Proc) {
	if p.pending {
		p.egen++
		p.pending = false
	}
	k.scheduleAt(k.now, p)
}

// SetCompletionKeying toggles topic matching on the completion signal.
// With keying off every broadcast wakes every parked waiter — the
// pre-keying behavior. On by default; the off switch exists so regression
// tests can measure the wakeup reduction keying buys. Must be set before
// Run.
func (k *Kernel) SetCompletionKeying(on bool) { k.unkeyedCompletion = !on }

// CompletionWakeups returns the number of waiter wake-ups completion
// broadcasts have performed so far. A fleet of S senders waking W waiters
// each write costs S·W wakeups unkeyed; keying cuts it to the waiters
// whose topic actually matched.
func (k *Kernel) CompletionWakeups() uint64 { return k.compWakeups }

// CompletionWakeups exposes the kernel counter on the process so driver
// code holding only a simenv.Env can read it through an interface
// assertion.
func (p *Proc) CompletionWakeups() uint64 { return p.k.compWakeups }

// topicMatch reports whether a broadcast for key wakes a waiter parked on
// topic. An empty key is a wildcard broadcast (wakes everyone); an empty
// topic is a wildcard subscription (woken by everything); otherwise the
// waiter wakes when the written key falls under its topic prefix.
func topicMatch(key, topic string) bool {
	if key == "" || topic == "" {
		return true
	}
	return len(key) >= len(topic) && key[:len(topic)] == topic
}

// notifyKey wakes every waiter whose topic matches key at the current
// virtual instant.
func (k *Kernel) notifyKey(key string) {
	if k.unkeyedCompletion {
		key = ""
	}
	kept := k.compWaiters[:0]
	for _, w := range k.compWaiters {
		if topicMatch(key, w.topic) {
			w.p.notified = true
			k.wakeCancel(w.p)
			k.compWakeups++
		} else {
			kept = append(kept, w)
		}
	}
	k.compWaiters = kept
}

// NotifyKey broadcasts the completion signal for key: services call it at
// the instant they make something visible (an object under an S3 key, a
// DynamoDB item, an SQS message), waking only the waiters parked on a
// matching topic (every waiter, for the empty key).
func (p *Proc) NotifyKey(key string) { p.k.notifyKey(key) }

// WaitNotifyKey parks p until a completion broadcast whose key matches
// topic (prefix match; empty topic matches everything) or until d of
// virtual time passed, and reports whether the broadcast arrived. Together
// with NotifyKey it satisfies simenv.Notifier, so barriers built on
// simenv.WaitNotifyKey resolve at the exact virtual instant of the write
// they await instead of at the next poll boundary. Keyed
// parking is what lets hundred-sender fleets coexist with parked
// barriers: an exchange write wakes the one consumer waiting on that
// stage's prefix, not every waiter in the simulation.
func (p *Proc) WaitNotifyKey(topic string, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	k := p.k
	if k.unkeyedCompletion {
		topic = ""
	}
	k.compWaiters = append(k.compWaiters, compWaiter{p: p, topic: topic})
	p.notified = false
	k.scheduleAt(k.now+d, p)
	p.yield()
	if p.notified {
		p.notified = false
		return true
	}
	// Timed out: withdraw from the waiter list.
	for i, w := range k.compWaiters {
		if w.p == p {
			k.compWaiters = append(k.compWaiters[:i], k.compWaiters[i+1:]...)
			break
		}
	}
	return false
}
