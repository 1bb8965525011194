// Package netmodel provides the calibrated network performance models the
// Lambada paper measures on AWS: the credit-based ingress bandwidth shaping
// of serverless functions (§4.3.1, Figure 6), region-dependent invocation
// latencies (Table 1), and heavy-tailed latency distributions used for the
// straggler analysis (Figure 13).
package netmodel

import (
	"math"
	"math/rand"
	"time"
)

// Byte-size units.
const (
	MiB = 1 << 20

	MB = 1000 * 1000
	GB = 1000 * 1000 * 1000
	TB = 1000 * 1000 * 1000 * 1000
)

// Rate is a data rate in bytes per second.
type Rate float64

// Over returns the time to move n bytes at rate r.
func (r Rate) Over(n int64) time.Duration {
	if r <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(r) * float64(time.Second))
}

// Dist is a deterministic-when-seeded latency distribution.
type Dist interface {
	// Sample draws one latency using rng.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution mean.
	Mean() time.Duration
}

// Constant is a degenerate distribution.
type Constant time.Duration

// Sample returns the constant.
func (c Constant) Sample(*rand.Rand) time.Duration { return time.Duration(c) }

// Mean returns the constant.
func (c Constant) Mean() time.Duration { return time.Duration(c) }

// Uniform is uniform on [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample draws uniformly from [Min, Max].
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// Mean returns (Min+Max)/2.
func (u Uniform) Mean() time.Duration { return (u.Min + u.Max) / 2 }

// Lognormal is a shifted lognormal distribution: Shift + e^(Mu + Sigma*Z)
// nanoseconds. It models the heavy right tail of S3 request latencies that
// produces stragglers at scale.
type Lognormal struct {
	Shift time.Duration
	// Mu and Sigma are the parameters of the underlying normal, with the
	// lognormal expressed in units of Scale.
	Mu, Sigma float64
	Scale     time.Duration
}

// Sample draws from the shifted lognormal.
func (l Lognormal) Sample(rng *rand.Rand) time.Duration {
	z := rng.NormFloat64()
	v := math.Exp(l.Mu + l.Sigma*z)
	return l.Shift + time.Duration(v*float64(l.Scale))
}

// Mean returns Shift + Scale * e^(Mu + Sigma^2/2).
func (l Lognormal) Mean() time.Duration {
	return l.Shift + time.Duration(math.Exp(l.Mu+l.Sigma*l.Sigma/2)*float64(l.Scale))
}

// TokenBucket is a credit-based bandwidth shaper modeling the traffic
// shaping the paper hypothesizes for Lambda ingress (§4.3.1): a function may
// burst above its sustained rate for a small number of seconds, after which
// throughput settles at the sustained rate.
//
// Credits measure the burst budget in bytes-above-sustained: they refill at
// the sustained rate (capped at Capacity) while the link is idle or
// under-utilized and drain at (actual - sustained) while bursting.
type TokenBucket struct {
	Sustained Rate    // long-run rate (≈ 90 MiB/s for Lambda ingress)
	Burst     Rate    // short-term ceiling (≈ 300 MiB/s)
	Capacity  float64 // burst budget in bytes-above-sustained

	credits float64
	last    time.Duration
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(sustained, burst Rate, burstWindow time.Duration) *TokenBucket {
	cap := float64(burst-sustained) * burstWindow.Seconds()
	if cap < 0 {
		cap = 0
	}
	return &TokenBucket{Sustained: sustained, Burst: burst, Capacity: cap, credits: cap}
}

func (b *TokenBucket) refill(now time.Duration) {
	if now < b.last {
		return
	}
	dt := (now - b.last).Seconds()
	b.last = now
	b.credits += dt * float64(b.Sustained)
	if b.credits > b.Capacity {
		b.credits = b.Capacity
	}
}

// Transfer computes the time to move n bytes starting at virtual time now,
// where the requester can use at most reqRate (e.g. per-connection capacity
// × connection count). It debits the burst budget accordingly and returns
// the transfer duration.
func (b *TokenBucket) Transfer(now time.Duration, n int64, reqRate Rate) time.Duration {
	if n <= 0 {
		return 0
	}
	b.refill(now)
	rate := reqRate
	if rate > b.Burst {
		rate = b.Burst
	}
	if rate <= 0 {
		return 0
	}
	if rate <= b.Sustained {
		// No burst needed; credits refill during the transfer (capped).
		d := rate.Over(n)
		b.credits += d.Seconds() * float64(b.Sustained-rate)
		if b.credits > b.Capacity {
			b.credits = b.Capacity
		}
		b.last = now + d
		return d
	}
	// Phase 1: burst until credits exhausted.
	drain := float64(rate - b.Sustained) // credit drain per second
	t1 := b.credits / drain
	bytes1 := t1 * float64(rate)
	if float64(n) <= bytes1 {
		d := rate.Over(n)
		b.credits -= d.Seconds() * drain
		if b.credits < 0 {
			b.credits = 0
		}
		b.last = now + d
		return d
	}
	// Phase 2: remainder at the sustained rate.
	rest := float64(n) - bytes1
	d := time.Duration(t1*float64(time.Second)) + b.Sustained.Over(int64(rest))
	b.credits = 0
	b.last = now + d
	return d
}
