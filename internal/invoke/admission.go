package invoke

import (
	"sync"
	"time"

	"lambada/internal/awssim/simenv"
)

// Admission is the launch governor of the stage scheduler. Shared by a
// resident session it is the deployment-wide invocation budget: every query
// running on the session acquires tokens from one pool before invoking
// workers, so a thousand-worker fleet cannot starve an interactive query of
// invocation capacity. A session without a cap gives each query a private
// unlimited controller, which leaves only the pacer.
//
// Token accounting is exact by construction: the scheduler acquires exactly
// as many tokens as containers its Invoke call will spawn (one for a direct
// invocation, 1+len(children) for a tree node — the children are invoked
// from inside the first-generation worker, past the driver), and every
// container releases exactly one token when it settles, crash paths
// included (the Lambda service's completion hook fires wherever its running
// gauge decrements). In-flight therefore never undercounts actual running
// containers, and Peak() ≤ Capacity bounds the deployment's true peak
// concurrency.
//
// Nothing ever blocks on the pool: schedulers take tokens with TryAcquire,
// launch what they were granted and return to their event loops, and
// Release happens on the worker side of the simulation as containers
// settle — so one query stalling on admission can never deadlock the
// deployment. Launch order within a query is topological (producers before
// consumers), so tokens held by workers parked on a ready barrier always
// have their producers fully launched and making progress.
//
// The controller also owns the shared invocation-rate pacer: the Invoke API
// rate (Pacing, Table 1) is a deployment-wide resource, so concurrent
// queries split it instead of each assuming the full rate.
type Admission struct {
	mu       sync.Mutex
	capacity int
	inFlight int
	peak     int
	blocked  uint64
	overflow uint64
	acquired uint64

	pacing   Pacing
	nextSlot time.Duration
}

// NewAdmission returns a controller with the given concurrent-invocation
// capacity (<= 0 means unlimited: TryAcquire always succeeds, Pace still
// paces).
func NewAdmission(capacity int, pacing Pacing) *Admission {
	return &Admission{capacity: capacity, pacing: pacing}
}

// Capacity returns the configured token capacity (<= 0 = unlimited).
func (a *Admission) Capacity() int {
	if a == nil {
		return 0
	}
	return a.capacity
}

// TryAcquire takes n tokens if they are available right now and reports
// whether it did. It never blocks: when the pool is dry the scheduler
// launches a partial fleet and returns to its event loop, so the driver
// keeps consuming seal messages — a driver parked on the pool could never
// write the ready marker that token-holding consumers parked on a barrier
// are waiting for. A request larger than the whole capacity is admitted
// once the pool is empty. Nil and unlimited controllers always succeed.
func (a *Admission) TryAcquire(n int) bool {
	if a == nil || a.capacity <= 0 || n <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inFlight+n > a.capacity && !(n > a.capacity && a.inFlight == 0) {
		a.blocked++
		return false
	}
	a.inFlight += n
	a.acquired += uint64(n)
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
	return true
}

// AcquireOverflow takes one token immediately, past capacity if need be.
// Recovery traffic — failure relaunches and speculative backups — must not
// queue behind the very tokens held by workers waiting on the crashed
// producer, so it is admitted unconditionally and counted in Overflow;
// Peak() ≤ Capacity is therefore guaranteed only for fault-free runs.
func (a *Admission) AcquireOverflow() {
	if a == nil || a.capacity <= 0 {
		return
	}
	a.mu.Lock()
	a.inFlight++
	a.acquired++
	if a.inFlight > a.capacity {
		a.overflow++
	}
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
	a.mu.Unlock()
}

// Release returns n tokens. The Lambda service's completion hook calls it
// with n=1 as each container settles.
func (a *Admission) Release(n int) {
	if a == nil || a.capacity <= 0 || n <= 0 {
		return
	}
	a.mu.Lock()
	a.inFlight -= n
	if a.inFlight < 0 {
		a.inFlight = 0
	}
	a.mu.Unlock()
}

// Pacing returns the pacer's rate model (Table 1): what every Invoke issued
// through the controller is paced at.
func (a *Admission) Pacing() Pacing { return a.pacing }

// Pace charges one Invoke API slot against the rate pacer, sleeping the
// caller until its slot: queries sharing the controller interleave at the
// deployment's effective invocation rate instead of each assuming the full
// rate. Nil receivers are no-ops.
func (a *Admission) Pace(env simenv.Env) {
	if a == nil {
		return
	}
	gap := a.pacing.Gap()
	a.mu.Lock()
	now := env.Now()
	if a.nextSlot < now {
		a.nextSlot = now
	}
	wait := a.nextSlot - now
	a.nextSlot += gap
	a.mu.Unlock()
	if wait > 0 {
		env.Sleep(wait)
	}
}

// InFlight returns the tokens currently held.
func (a *Admission) InFlight() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// Peak returns the highest token count ever held simultaneously — with
// exact accounting this bounds the deployment's true peak container
// concurrency from above.
func (a *Admission) Peak() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Blocked counts TryAcquire calls the pool denied.
func (a *Admission) Blocked() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.blocked
}

// Overflow counts tokens taken past capacity by AcquireOverflow (recovery
// traffic). Zero in fault-free, speculation-free runs.
func (a *Admission) Overflow() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overflow
}

// Acquired returns the cumulative tokens ever acquired (one per container
// launched through admission).
func (a *Admission) Acquired() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acquired
}
