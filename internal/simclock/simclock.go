// Package simclock provides a deterministic discrete-event simulation (DES)
// kernel with virtual time.
//
// Processes are ordinary goroutines scheduled cooperatively: exactly one
// process runs at any instant, and control returns to the kernel whenever a
// process blocks on virtual time (Sleep) or on the keyed completion signal
// (Arm, then Park or Disarm; woken by NotifyKey or its timeout) — the one
// synchronization primitive. Events at the same virtual instant are ordered
// by creation sequence, which makes every run deterministic regardless of how
// the Go runtime schedules goroutines.
//
// The kernel is the substrate for the cloud-service simulators in
// internal/awssim: worker fleets of thousands of serverless functions and
// multi-terabyte shuffles execute in milliseconds of wall-clock time while
// observing the calibrated latency, bandwidth, and pricing models.
package simclock

import (
	"container/heap"
	"fmt"
	"slices"
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
	// compWaiters are the processes armed on the completion signal — parked
	// in Park, or still checking before they do — each with the topic it
	// subscribed to. compWakeups counts every waiter a completion broadcast
	// reached — the contention metric the keyed signal exists to reduce.
	compWaiters []compWaiter
	compWakeups uint64
}

type compWaiter struct {
	p     *Proc
	topic string
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
	old[n-1] = event{} // the backing array must not keep a finished process alive
	*h = old[:n-1]
	return e
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{parked: make(chan struct{})}
}

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
	// armed: the process has an entry in compWaiters (Arm). parked: it is
	// parked on that entry (Park). notified: a matching broadcast took the
	// entry — while the process was parked, or while it was still checking,
	// in which case its Park returns at once.
	armed, parked, notified bool
}

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

// wakeCancel wakes a parked process at the current instant, cancelling any
// wake-up it already has scheduled (a Park timer superseded by the broadcast
// that arrived first).
func (k *Kernel) wakeCancel(p *Proc) {
	if p.pending {
		p.egen++
		p.pending = false
	}
	k.scheduleAt(k.now, p)
}

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

// notifyKey takes the entry of every waiter whose topic matches key: a
// parked waiter wakes at the current virtual instant, one still checking is
// marked and does not park.
func (k *Kernel) notifyKey(key string) {
	kept := k.compWaiters[:0]
	for _, w := range k.compWaiters {
		if topicMatch(key, w.topic) {
			w.p.armed, w.p.notified = false, true
			if w.p.parked {
				k.wakeCancel(w.p)
			}
			k.compWakeups++
		} else {
			kept = append(kept, w)
		}
	}
	clear(k.compWaiters[len(kept):])
	k.compWaiters = kept
}

// NotifyKey broadcasts the completion signal for key: services call it at
// the instant they make something visible (an object under an S3 key, a
// DynamoDB item, an SQS message), waking only the waiters parked on a
// matching topic (every waiter, for the empty key).
func (p *Proc) NotifyKey(key string) { p.k.notifyKey(key) }

// Arm registers p's entry on topic ahead of the check a barrier makes before
// it parks. A check takes virtual time — a request's latency — and a matching
// broadcast that lands meanwhile takes the entry, so the Park that follows
// returns at once instead of sleeping out a poll for a write that already
// happened. Every Arm is followed by one Park or one Disarm.
func (p *Proc) Arm(topic string) {
	if p.armed || p.notified {
		panic(fmt.Sprintf("simclock: process %q armed twice", p.name))
	}
	p.k.compWaiters = append(p.k.compWaiters, compWaiter{p: p, topic: topic})
	p.armed = true
}

// Park parks p on the entry Arm registered until a matching broadcast or
// until d of virtual time passed, and reports whether the broadcast arrived.
// If one arrived since Arm, Park returns true at once: no virtual time
// passes and p does not yield. A timed-out entry is withdrawn.
func (p *Proc) Park(d time.Duration) bool {
	if !p.notified {
		if !p.armed {
			panic(fmt.Sprintf("simclock: process %q parks without an armed entry", p.name))
		}
		p.parked = true
		p.k.scheduleAt(p.k.now+max(d, 0), p)
		p.yield()
		p.parked = false
	}
	if p.notified {
		p.notified = false
		return true
	}
	p.Disarm()
	return false
}

// Disarm withdraws the entry Arm registered, for a barrier whose check
// succeeded and which will not park: the entry must not outlive the wait,
// or a later broadcast would take it for a process that is not waiting. A
// process without an entry is left as it is.
func (p *Proc) Disarm() {
	p.notified = false
	if !p.armed {
		return
	}
	p.armed = false
	k := p.k
	for i, w := range k.compWaiters {
		if w.p == p {
			k.compWaiters = slices.Delete(k.compWaiters, i, i+1) // zeroes the freed slot
			return
		}
	}
}
