package s3

import (
	"errors"
	"time"
)

// window is how many requests a client keeps in flight inside Overlap. The
// paper's worker overlaps its requests because each pays a first-byte latency
// that a small read cannot amortise (§4.3.2, Figure 7). One constant for every
// caller (the exchange's rounds, deletes and sweeps, a staged fragment's one
// collect over all of its inputs, scan.OpenAll, s3fs's ReadRanges): 256 small
// reads pay 16 latencies, and large ones are bound by the link.
const window = 16

// ErrLaneWrite is returned by Put and PutSynthetic on a lane of a request
// window: an upload becomes visible, and wakes the readers parked on its
// key, after its latency, and a lane has no instant of its own to do that at.
var ErrLaneWrite = errors.New("s3: upload on a request-window lane")

// laneEnv is the clock of one lane: it stands at the instant the lane's
// request was issued plus the sleeps the request has asked for since —
// service latency, retry backoff, shaped transfer — which it adds up instead
// of parking anyone.
type laneEnv struct{ at time.Duration }

func (l *laneEnv) Now() time.Duration { return l.at }

func (l *laneEnv) Sleep(d time.Duration) {
	if d > 0 {
		l.at += d
	}
}

// onLane reports whether c is a lane of a request window.
func (c *Client) onLane() bool {
	_, lane := c.env.(*laneEnv)
	return lane
}

// Overlap calls fn(0), …, fn(n-1) with up to sixteen of the calls in flight —
// as a model of time, not as goroutines. The calls are made one after
// another, in index order, on the caller's goroutine, so fn may append to
// what it shares with its caller; each gets a lane, a view of the client on a
// clock of its own (laneEnv), and finishes at the instant that clock has
// reached when fn returns. The caller alone parks, through its own
// environment — so the DES kernel and a crash deadline see true instants —
// and only until the lane that is free first (the lowest such lane) is free,
// before it issues the next call, and until the last lane is, before it
// returns. A request is therefore admitted, fault-injected, rate-windowed,
// billed and traced at the instant it is issued, in index order, and its op
// span runs under the caller's current span from that instant to its own end,
// overlapping its neighbours'. Lanes share the client's retry budget,
// counters and link: shaped transfers queue on the one token bucket
// (shared.busyUntil), so a window moves bytes no faster than the function can.
//
// Overlap stops issuing at the first error, waits for the calls in flight and
// returns that error — the lowest failing index, as from a serial loop. Only
// requests that take effect at the service before their latency are legal on
// a lane: Get, GetRange, GetSuffix, List, Delete, DeleteBatch. Put and
// PutSynthetic return ErrLaneWrite. A worker that dies inside Overlap
// (crashEnv) dies in one of the caller's parks, having issued exactly the
// calls that started before that instant.
//
// What the model gives up: a call runs to its end before the next is issued,
// so whatever it does after its first sleep — a retry after its backoff, the
// second request of a call that makes two — reaches the service ahead of
// calls issued, and dated, earlier. A retry that outlasts a bucket's
// one-second rate window opens the next one, and the calls behind it are
// counted there.
func (c *Client) Overlap(n int, fn func(i int, lane *Client) error) error {
	clocks := make([]laneEnv, min(n, window))
	lanes := make([]Client, len(clocks))
	parent := c.policy.Trace.Current(c.env)
	for l := range lanes {
		lanes[l] = *c
		lanes[l].env = &clocks[l]
		c.policy.Trace.Bind(&clocks[l], parent)
	}
	defer func() {
		for l := range clocks {
			c.policy.Trace.Pop(&clocks[l])
		}
	}()
	var err error
	for i := 0; i < n && err == nil; i++ {
		l := 0
		for j := range clocks {
			if clocks[j].at < clocks[l].at {
				l = j
			}
		}
		c.sleepUntil(clocks[l].at)
		clocks[l].at = max(clocks[l].at, c.env.Now())
		err = fn(i, &lanes[l])
	}
	var last time.Duration
	for l := range clocks {
		last = max(last, clocks[l].at)
	}
	c.sleepUntil(last)
	return err
}

// sleepUntil parks the caller until the instant t, if that is still ahead.
func (c *Client) sleepUntil(t time.Duration) {
	if d := t - c.env.Now(); d > 0 {
		c.env.Sleep(d)
	}
}
