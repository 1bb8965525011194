// Package simenv defines the execution-environment abstraction shared by all
// cloud-service simulators: a virtual clock the service charges latencies to,
// and the one request path every simulated service takes (Endpoint: fail as
// the fault plan says, bill, sleep one seeded latency draw).
//
// Two implementations of the clock matter:
//   - *simclock.Proc (the DES kernel) — performance experiments run here;
//     Sleep advances virtual time deterministically.
//   - Immediate — the functional layer; latencies are skipped so correctness
//     tests and examples on real data run instantly.
package simenv

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Env is a virtual clock. Services call Sleep to charge request latencies
// and transfer times to the caller.
type Env interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Sleep suspends the caller for d of virtual time.
	Sleep(d time.Duration)
}

// Immediate is an Env whose Sleep is a no-op but which still accumulates the
// total virtual time that would have elapsed, so functional-mode runs can
// report modeled durations without waiting for them.
type Immediate struct {
	elapsed atomic.Int64
}

// NewImmediate returns an Immediate env at time zero.
func NewImmediate() *Immediate { return &Immediate{} }

// Now returns the accumulated virtual time.
func (e *Immediate) Now() time.Duration { return time.Duration(e.elapsed.Load()) }

// The completion signal shared by every Immediate env: NotifyKey rotates the
// broadcast channel, waking every goroutine currently parked in a
// poll-sized Sleep. GoRuntime gives each worker its own Immediate, so the
// signal is process-wide rather than per-env — a worker's SQS Send must
// wake the driver's poller even though they hold different clocks.
// Keyed waiters park on per-topic channels (topicChs); a NotifyKey closes
// (and retires) every topic channel the written key falls under, plus the
// wildcard channel. notifyWakeups counts waiters actually woken by a
// broadcast — the contention metric keying exists to reduce.
var (
	notifyMu      sync.Mutex
	notifyCh      = make(chan struct{})
	topicChs      = make(map[string]chan struct{})
	notifyWakeups atomic.Uint64
)

// NotifyKey broadcasts a completion signal for key (work was produced — e.g.
// a message arrived on an SQS queue): waiters parked on a matching topic
// (prefix of key) wake, and so does every goroutine blocked in an Immediate
// poll-sized Sleep. An empty key is the wildcard broadcast and wakes
// everyone. Spurious wakeups are harmless: a waiter is credited its virtual
// time before it parks, so a woken poller simply re-checks its condition.
func NotifyKey(key string) {
	notifyMu.Lock()
	close(notifyCh)
	notifyCh = make(chan struct{})
	for topic, ch := range topicChs {
		if key == "" || strings.HasPrefix(key, topic) {
			close(ch)
			delete(topicChs, topic)
		}
	}
	notifyMu.Unlock()
}

// pollGuard bounds the real time a poll-sized Sleep parks for when no
// completion signal arrives: enough of a throttle that a waiter spinning
// on a virtual timeout cannot burn through minutes of it in milliseconds
// of real time while the worker goroutines it awaits have barely run
// (with GOMAXPROCS > 1 a bare Gosched does exactly that — the driver's
// SQS result poll would time out under 0/N messages), yet small enough
// that a 10-virtual-minute timeout costs ~1 s of real time.
const pollGuard = 50 * time.Microsecond

// Sleep accumulates d without blocking on virtual time. Poll-sized sleeps
// (≥ 1 ms of virtual time) park until the next completion signal (NotifyKey,
// broadcast on every SQS Send) with pollGuard as the fallback: pollers
// wake the instant work arrives instead of burning fixed real-time
// throttles, and waiters whose work never arrives still make bounded
// real-time progress toward their virtual deadline.
func (e *Immediate) Sleep(d time.Duration) {
	if d < time.Millisecond {
		if d > 0 {
			e.elapsed.Add(int64(d))
		}
		runtime.Gosched()
		return
	}
	e.wait("", d)
}

// Notifier is an Env that carries a completion signal a Barrier can park on
// instead of a timed poll: *simclock.Proc routes through the DES kernel's
// completion signal (waking at the exact virtual instant of the broadcast),
// Immediate through the process-wide notify channel. Services broadcast when
// they produce something a poller may await (an object or marker appearing,
// a message arriving).
type Notifier interface {
	Env
	// NotifyKey broadcasts the completion signal for a written key, waking
	// only waiters parked on a matching topic (a prefix of key); the empty
	// key wakes every waiter.
	NotifyKey(key string)
}

// BroadcastKey signals that something became visible under key: services
// call it at every write that may unblock a parked barrier (an S3 object,
// a DynamoDB item, an SQS message), routed through env's native keyed
// channel — the DES completion signal when env is a kernel process, the
// process-wide NotifyKey otherwise — so only waiters on a matching topic wake.
func BroadcastKey(env Env, key string) {
	if n, ok := env.(Notifier); ok {
		n.NotifyKey(key)
		return
	}
	NotifyKey(key)
}

// Armer is a Notifier whose caller can register its wake-up before the check
// it parks after (*simclock.Proc): Arm takes a waiter entry on topic, a
// matching broadcast that lands while the caller checks marks it, and Park
// then returns at once; Disarm withdraws an entry the caller will not park
// on.
type Armer interface {
	Arm(topic string)
	Park(d time.Duration) bool
	Disarm()
}

// Barrier is the one way to wait for a completion broadcast: a
// check-then-park wait that cannot lose its wake-up. Every barrier arms, then
// checks, then parks; a wait with nothing to check arms and parks at once. A
// check takes virtual time — a request's latency — and a broadcast that lands
// during it would be missed by a park armed only afterwards, which then
// sleeps out a whole poll for a write that already happened. Arm it before
// the check; after the check, Wait if the condition is still false, Cancel
// otherwise. On an env that is not an Armer Cancel does nothing, and Wait is
// Immediate's timed wait, whose every wake-up charges the full interval, or
// on an env with no completion signal a plain Sleep.
type Barrier struct {
	env   Env
	a     Armer
	topic string
}

// Arm opens a barrier on topic for env's caller; see Barrier.
func Arm(env Env, topic string) Barrier {
	a, _ := env.(Armer)
	if a != nil {
		a.Arm(topic)
	}
	return Barrier{env: env, a: a, topic: topic}
}

// Wait parks the caller for at most d, waking early on a broadcast matching
// the barrier's topic since Arm — at once if one landed during the check —
// and reports whether the broadcast arrived.
func (b Barrier) Wait(d time.Duration) bool {
	if b.a != nil {
		return b.a.Park(d)
	}
	if e, ok := b.env.(*Immediate); ok {
		return e.wait(b.topic, d)
	}
	b.env.Sleep(d)
	return false
}

// Cancel withdraws the barrier's entry: the check succeeded, or the caller
// leaves without waiting. It does nothing on the zero Barrier, nor once Wait
// returned, unless the caller has armed another barrier since.
func (b Barrier) Cancel() {
	if b.a != nil {
		b.a.Disarm()
	}
}

// NotifyKey broadcasts the process-wide completion signal for key
// (Notifier).
func (e *Immediate) NotifyKey(key string) { NotifyKey(key) }

// CompletionWakeups exposes the process-wide wakeup counter through the
// same interface assertion the driver uses for *simclock.Proc.
func (e *Immediate) CompletionWakeups() uint64 { return notifyWakeups.Load() }

// wait is Barrier.Wait on an Immediate, and its poll-sized Sleep: it parks on
// the topic's channel (the wildcard channel when topic is empty) with the
// pollGuard timer as the real-time fallback, and reports whether a matching
// broadcast arrived. Every wake-up — notified or not — charges the full d of
// virtual time, exactly like the Sleep-based poll loop it replaces: an
// Immediate env has no cross-goroutine clock to date the broadcast with,
// and charging less would let a waiter whose condition never turns true
// spin below its virtual deadline for as long as unrelated broadcasts keep
// arriving. (DES processes don't have this problem: their kernel clock
// advances to the broadcast's true instant.)
func (e *Immediate) wait(topic string, d time.Duration) bool {
	if d > 0 {
		e.elapsed.Add(int64(d))
	}
	notifyMu.Lock()
	ch := notifyCh
	if topic != "" {
		if tc, ok := topicChs[topic]; ok {
			ch = tc
		} else {
			ch = make(chan struct{})
			topicChs[topic] = ch
		}
	}
	notifyMu.Unlock()
	t := time.NewTimer(pollGuard)
	defer t.Stop()
	select {
	case <-ch:
		notifyWakeups.Add(1)
		return true
	case <-t.C:
		return false
	}
}
