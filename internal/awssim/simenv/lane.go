package simenv

import (
	"time"

	"lambada/internal/obs"
)

// Lane is the clock of one lane of a request window: it stands at the instant
// the lane's request was issued plus the sleeps the request has asked for
// since — service latency, retry backoff, shaped transfer — which it adds up
// instead of parking anyone.
type Lane struct{ at time.Duration }

// Now returns the lane's instant.
func (l *Lane) Now() time.Duration { return l.at }

// Sleep advances the lane's clock by d.
func (l *Lane) Sleep(d time.Duration) {
	if d > 0 {
		l.at += d
	}
}

// Overlap calls fn(0, lane), …, fn(n-1, lane) with up to len(lanes) of the
// calls in flight — as a model of time, not as goroutines. The calls are made
// one after another, in index order, on the caller's goroutine, so fn may
// append to what it shares with its caller; call i runs on lanes[lane], which
// stands at the instant i is issued, and finishes at the instant that clock
// has reached when fn returns. The caller alone parks, through env — so the
// DES kernel and a crash deadline see true instants — and only until the lane
// that is free first (the lowest such lane) is free, before it issues the next
// call, and until the last lane is, before it returns. A request is therefore
// issued, billed and traced at its own instant, in index order, and its latency
// overlaps its neighbours'. For the window's lifetime every lane is bound in tr
// (nil: untraced) to env's current span, so the op spans of the calls run
// under the caller's span, side by side.
//
// Overlap stops issuing at the first error, waits for the calls in flight and
// returns that error — the lowest failing index, as from a serial loop. Only
// requests that take effect at the service before their latency are legal on
// a lane: a read, a delete, a receive. An upload becomes visible, and wakes
// the waiters on its key, after its latency, and a lane has no instant of its
// own to do that at.
//
// What the model gives up: a call runs to its end before the next is issued,
// so whatever it does after its first sleep — a retry after its backoff, the
// second request of a call that makes two — reaches the service ahead of
// calls issued, and dated, earlier.
func Overlap(env Env, tr *obs.Tracer, lanes []Lane, n int, fn func(i, lane int) error) error {
	parent := tr.Current(env)
	for l := range lanes {
		tr.Bind(&lanes[l], parent)
	}
	defer func() {
		for l := range lanes {
			tr.Pop(&lanes[l])
		}
	}()
	var err error
	for i := 0; i < n && err == nil; i++ {
		l := 0
		for j := range lanes {
			if lanes[j].at < lanes[l].at {
				l = j
			}
		}
		sleepUntil(env, lanes[l].at)
		lanes[l].at = max(lanes[l].at, env.Now())
		err = fn(i, l)
	}
	var last time.Duration
	for l := range lanes {
		last = max(last, lanes[l].at)
	}
	sleepUntil(env, last)
	return err
}

// sleepUntil parks env's caller until the instant t, if that is still ahead.
func sleepUntil(env Env, t time.Duration) {
	if d := t - env.Now(); d > 0 {
		env.Sleep(d)
	}
}
