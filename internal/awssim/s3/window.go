package s3

import (
	"errors"

	"lambada/internal/awssim/simenv"
)

// window is how many requests a client keeps in flight inside Overlap. The
// paper's worker overlaps its requests because each pays a first-byte latency
// that a small read cannot amortise (§4.3.2, Figure 7). One constant for every
// caller (the exchange's rounds, deletes and sweeps, a staged fragment's one
// collect over all of its inputs, scan.OpenAll, and s3fs.ReadWindow — a scan's
// consecutive row groups, across files, up to its payload break-even): 256
// small reads pay 16 latencies, and large ones are bound by the link.
const window = 16

// ErrLaneWrite is returned by Put and PutSynthetic on a lane of a request
// window: an upload becomes visible, and wakes the readers parked on its
// key, after its latency, and a lane has no instant of its own to do that at.
var ErrLaneWrite = errors.New("s3: upload on a request-window lane")

// onLane reports whether c is a lane of a request window.
func (c *Client) onLane() bool {
	_, lane := c.env.(*simenv.Lane)
	return lane
}

// Overlap calls fn(0), …, fn(n-1) with up to sixteen of the calls in flight,
// on the lane model of simenv.Overlap: each call gets a lane, a view of the
// client on a clock of its own, and its op span runs under the caller's
// current span from its issue instant to its own end, overlapping its
// neighbours'. A request is admitted, fault-injected, rate-windowed, billed
// and traced at the instant it is issued, in index order. Lanes share the
// client's retry budget, counters and link: shaped transfers queue on the one
// token bucket (shared.busyUntil), so a window moves bytes no faster than the
// function can.
//
// Legal on a lane: Get, GetRange, GetSuffix, List, Delete, DeleteBatch. Put
// and PutSynthetic return ErrLaneWrite. A worker that dies inside Overlap
// (crashEnv) dies in one of the caller's parks, having issued exactly the
// calls that started before that instant. A retry that outlasts a bucket's
// one-second rate window opens the next one, and the calls behind it are
// counted there.
func (c *Client) Overlap(n int, fn func(i int, lane *Client) error) error {
	clocks := make([]simenv.Lane, min(n, window))
	lanes := make([]Client, len(clocks))
	for l := range lanes {
		lanes[l] = *c
		lanes[l].env = &clocks[l]
	}
	return simenv.Overlap(c.env, c.policy.Trace, clocks, n, func(i, l int) error { return fn(i, &lanes[l]) })
}
