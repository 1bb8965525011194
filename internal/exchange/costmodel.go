package exchange

import (
	"fmt"
	"math"

	"lambada/internal/awssim/pricing"
	"lambada/internal/obs"
)

// Variant identifies one exchange algorithm of Table 2. The JSON tags are
// the wire form stage plans and worker payloads ship boundary variants in.
type Variant struct {
	// Levels is the number of exchange rounds (1 = BasicExchange).
	Levels int `json:"levels"`
	// WriteCombining writes all partitions of a worker into a single file
	// whose part offsets are encoded in the file name (§4.4.3).
	WriteCombining bool `json:"writeCombining,omitempty"`
	// Buckets, when positive, narrows the shard-bucket pool the exchange
	// spreads objects over to its first Buckets names: sharding (§4.4.2)
	// exists only to stay under S3's per-prefix request-rate ceilings, and
	// beyond that point extra buckets just multiply the List bill (every
	// receiver lists min(S, B) buckets). stageplan.ChooseVariant picks the
	// smallest count whose per-bucket round pressure fits the budget. Zero
	// keeps the caller's full pool (the pre-PR10 behavior).
	Buckets int `json:"buckets,omitempty"`
}

// String renders like the paper: "1l", "2l-wc", ...
func (v Variant) String() string {
	s := fmt.Sprintf("%dl", v.Levels)
	if v.WriteCombining {
		s += "-wc"
	}
	return s
}

// AllVariants lists the six algorithms of Table 2 / Figure 9.
var AllVariants = []Variant{
	{Levels: 1}, {Levels: 1, WriteCombining: true},
	{Levels: 2}, {Levels: 2, WriteCombining: true},
	{Levels: 3}, {Levels: 3, WriteCombining: true},
}

// Reads returns the total read-request count for P workers (Table 2):
// k·P·P^(1/k).
func (v Variant) Reads(p int) float64 {
	k := float64(v.Levels)
	return k * float64(p) * math.Pow(float64(p), 1/k)
}

// Writes returns the total write-request count (Table 2): k·P·P^(1/k), or
// k·P with write combining.
func (v Variant) Writes(p int) float64 {
	k := float64(v.Levels)
	if v.WriteCombining {
		return k * float64(p)
	}
	return k * float64(p) * math.Pow(float64(p), 1/k)
}

// Lists returns the list-request count, O(P) for all variants (write
// combining discovers file names and offsets via lists).
func (v Variant) Lists(p int) float64 {
	return float64(v.Levels) * float64(p)
}

// Scans returns how many times the algorithm reads and writes the input
// (one per level).
func (v Variant) Scans() int { return v.Levels }

// RequestCost prices all requests of one exchange of P workers, including
// the list requests of write combining.
func (v Variant) RequestCost(p int) pricing.USD {
	c := v.ReadWriteCost(p)
	if v.WriteCombining {
		c += pricing.USD(v.Lists(p)) * pricing.S3List
	}
	return c
}

// ReadWriteCost prices only reads and writes — the two bar components
// Figure 9 plots.
func (v Variant) ReadWriteCost(p int) pricing.USD {
	return pricing.USD(v.Reads(p))*pricing.S3Read +
		pricing.USD(v.Writes(p))*pricing.S3Write
}

// WorkerCost estimates the cost of running the P workers for the exchange
// itself, as in Figure 9's horizontal band: each worker moves bytesPerWorker
// per scan at 85 MiB/s and costs $3.3e-5 per second (2 GiB workers).
func (v Variant) WorkerCost(p int, bytesPerWorker int64) pricing.USD {
	const rate = 85 * (1 << 20) // 85 MiB/s
	const usdPerWorkerSecond = 3.3e-5
	// Each level reads and writes the partitions once.
	seconds := float64(v.Scans()) * 2 * float64(bytesPerWorker) / rate
	return pricing.USD(float64(p) * seconds * usdPerWorkerSecond)
}

// RequestsPerBucketPerRound returns the per-bucket request rate pressure of
// one round: P workers spreading P^(1/k) requests each over B buckets
// (§4.4.2: "P·sqrt(P)/B per round" for two levels).
func (v Variant) RequestsPerBucketPerRound(p, buckets int) float64 {
	k := float64(v.Levels)
	if buckets < 1 {
		buckets = 1
	}
	return float64(p) * math.Pow(float64(p), 1/k) / float64(buckets)
}

// RequestCount is the exact billed S3 request breakdown of one S→P stage
// boundary under a variant — the analytic counterpart of what the pricing
// meter observes. Unlike the Table 2 asymptotics above (symmetric P-worker
// grid exchange), these counts are exact for the stage boundaries of stage.go
// in a fault-free run: collects happen after the producing fleet sealed, so
// every discovery runs exactly one List pass, and empty partitions still ship
// (schema-only lpq blobs), so no request is ever skipped data-dependently.
// The scale tests hold the meter to these numbers integer-exactly.
type RequestCount struct {
	Puts, Gets, Lists int64
}

// Total sums all billed requests.
func (c RequestCount) Total() int64 { return c.Puts + c.Gets + c.Lists }

// Cost prices the request breakdown.
func (c RequestCount) Cost() pricing.USD {
	return pricing.Price(obs.Cost{S3Put: c.Puts, S3Get: c.Gets, S3List: c.Lists})
}

// Requests predicts the exact billed request counts of one S-sender,
// P-partition stage boundary over the given shard-bucket count. Writing G
// for Groups(P) and nb for min(S, buckets) (contiguous sender IDs cover
// min(S, B) distinct shard buckets):
//
//	1l       S·(P+1) puts   P·S gets       P·nb lists
//	1l-wc    S puts         P·S gets       P·nb lists
//	2l       S·G+S+P+G puts G·S+P gets     G·nb+P lists
//	2l-wc    S+G puts       G·S+P gets     G·nb+P lists
//
// The multi-level rows are the paper's O(k·P·P^(1/k)) shape: the S·P term is
// gone — receivers touch one group object instead of S sender objects.
// Stage boundaries flatten Levels > 2 to one regroup round, so k > 2
// predicts like k = 2.
func (v Variant) Requests(senders, partitions, buckets int) RequestCount {
	s, p := int64(senders), int64(partitions)
	if v.Buckets > 0 && v.Buckets < buckets {
		buckets = v.Buckets
	}
	if buckets < 1 {
		buckets = 1
	}
	nb := s
	if int64(buckets) < nb {
		nb = int64(buckets)
	}
	if v.Levels >= 2 {
		g := int64(Groups(partitions))
		rc := RequestCount{Puts: s + g, Gets: g*s + p, Lists: g*nb + p}
		if !v.WriteCombining {
			rc.Puts = s*g + s + p + g
		}
		return rc
	}
	rc := RequestCount{Puts: s, Gets: p * s, Lists: p * nb}
	if !v.WriteCombining {
		rc.Puts = s*p + s
	}
	return rc
}

// Factorize splits P into k near-equal factors (s1 ≥ s2 ≥ ... with
// s1·s2·...·sk = P), the grid side lengths of the k-level exchange. The
// factors are chosen greedily as the divisor of the remaining product
// closest to its k-th root, which degrades gracefully for awkward P (a
// prime P yields P×1×...; the algorithm then equals fewer levels).
func Factorize(p, k int) []int {
	out := make([]int, 0, k)
	rem := p
	for level := k; level >= 1; level-- {
		if level == 1 {
			out = append(out, rem)
			break
		}
		target := math.Pow(float64(rem), 1/float64(level))
		best := 1
		bestDist := math.Inf(1)
		for d := 1; d <= rem; d++ {
			if rem%d != 0 {
				continue
			}
			dist := math.Abs(float64(d) - target)
			if dist < bestDist {
				best, bestDist = d, dist
			}
		}
		out = append(out, best)
		rem /= best
	}
	return out
}
