// Package invoke implements Lambada's worker invocation strategies (§4.2):
// direct invocation from the driver and the two-level invocation tree, in
// which the driver starts ~√P first-generation workers that each start ~√P
// second-generation workers before running their own query fragment — "an
// approach with sublinear runtime that can spawn 4k functions in 3 s".
//
// The driver issues every Invoke of its own — direct or first-generation —
// from one pool of RequesterThreads threads, pipelined and paced at Table 1's
// concurrent rate (DriverPacing); a worker invokes its children at the
// intra-region rate (WorkerPacing). UseTree picks, per fleet, whichever of the
// two strategies starts the fleet sooner at those rates.
package invoke

import (
	"time"

	"lambada/internal/netmodel"
)

// Pacing models the caller-side invocation throughput: issuing one Invoke
// API call takes SingleLatency; Threads calls overlap; the API caps the
// aggregate at Rate invocations/s (Table 1).
type Pacing struct {
	SingleLatency time.Duration
	Threads       int
	Rate          float64 // aggregate cap (invocations/s); 0 = uncapped
}

// Gap returns the effective time between consecutive invocation issues.
func (p Pacing) Gap() time.Duration {
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	if p.SingleLatency <= 0 {
		if p.Rate > 0 {
			return time.Duration(float64(time.Second) / p.Rate)
		}
		return 0
	}
	rate := float64(threads) / p.SingleLatency.Seconds()
	if p.Rate > 0 && rate > p.Rate {
		rate = p.Rate
	}
	return time.Duration(float64(time.Second) / rate)
}

// RequesterThreads is the size of the driver's requester pool (§4.2): the
// threads Table 1's concurrent rate was measured with, at which the Invoke
// API's aggregate cap, not the per-call round trip, sets the pace — about
// 294 Invokes/s from Zurich to eu, 1 000 workers in 3.4 s. The executor paces
// every driver-side Invoke at DriverPacing(region, RequesterThreads); only
// the model of the paper's measured Figure 5 ramp keeps one thread.
const RequesterThreads = 128

// DriverPacing returns the pacing of a driver in the given region using
// the given number of requester threads.
func DriverPacing(region netmodel.Region, threads int) Pacing {
	prof := netmodel.InvokeProfiles[region]
	return Pacing{SingleLatency: prof.SingleLatency, Threads: threads, Rate: prof.DriverRate}
}

// WorkerPacing returns the pacing of invocations issued from inside a
// serverless worker (intra-region, Table 1's third row).
func WorkerPacing(region netmodel.Region) Pacing {
	prof := netmodel.InvokeProfiles[region]
	// The intra-region rate is what a worker achieves in aggregate; model
	// it directly as the cap.
	return Pacing{SingleLatency: time.Duration(float64(time.Second) / prof.IntraRegionRate), Threads: 1, Rate: prof.IntraRegionRate}
}

// UseTree reports whether a fleet of total workers starts sooner through the
// two-level invocation tree than straight from the driver: it compares
// TreeDuration with DirectDuration at the driver's pacing, the workers'
// pacing and the mean cold start of a first-generation worker. At Table 1's
// concurrent rate (RequesterThreads) and a 250 ms cold start, a fleet of a
// hundred workers or so launches directly — 30 in ≈ 0.1 s, where the tree
// would wait out a cold start — and 256 or 4 096 go through the tree. The
// driver applies this policy per stage launch — the stage scheduler invokes
// each stage as its own fleet, and stage sizes differ wildly: a scan stage may
// be hundreds of workers while the final merge is a few, so each decides
// independently. Speculation backup bursts never go through the tree: their
// payloads are stamped per (worker, attempt), so the driver issues them
// directly, paced like any other direct launch.
func UseTree(driver, worker Pacing, coldStart time.Duration, total int) bool {
	return TreeDuration(driver, worker, coldStart, total) < DirectDuration(driver, total)
}

// TreeFanout splits worker IDs 0..total-1 into a two-level tree: the driver
// invokes the first ceil(√total) workers; worker i of that first generation
// additionally receives the IDs of its second-generation children
// (contiguous ranges), "about √P invocations each".
func TreeFanout(total int) (firstGen []int, children [][]int) {
	if total <= 0 {
		return nil, nil
	}
	g := intSqrtCeil(total)
	if g > total {
		g = total
	}
	firstGen = make([]int, g)
	children = make([][]int, g)
	for i := 0; i < g; i++ {
		firstGen[i] = i
	}
	rem := total - g
	per := (rem + g - 1) / g
	if per == 0 {
		return firstGen, children
	}
	next := g
	for i := 0; i < g && next < total; i++ {
		hi := next + per
		if hi > total {
			hi = total
		}
		for id := next; id < hi; id++ {
			children[i] = append(children[i], id)
		}
		next = hi
	}
	return firstGen, children
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return n
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}

// DirectDuration estimates the time to invoke total workers straight from
// the driver (Table 1 extrapolation: "invoking 1000 workers from the driver
// still takes 3.4 s to 4.4 s and linearly more for more workers").
func DirectDuration(p Pacing, total int) time.Duration {
	return time.Duration(total) * p.Gap()
}

// TreeDuration estimates the end-to-end time of the two-level tree: the
// driver's sequential first-generation launches plus one worker start plus
// that worker's child launches.
func TreeDuration(driver, worker Pacing, coldStart time.Duration, total int) time.Duration {
	firstGen, children := TreeFanout(total)
	d := time.Duration(len(firstGen)) * driver.Gap()
	maxChildren := 0
	for _, c := range children {
		if len(c) > maxChildren {
			maxChildren = len(c)
		}
	}
	return d + driver.SingleLatency/2 + coldStart + time.Duration(maxChildren)*worker.Gap()
}
