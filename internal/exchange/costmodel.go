package exchange

import (
	"encoding/binary"
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
	// driverless receiver lists min(S, B) buckets). stageplan.ChooseVariant
	// picks the smallest count under which SealedRequests fits the per-bucket
	// budget. Zero keeps the caller's full pool.
	Buckets int `json:"buckets,omitempty"`
}

// ShardBuckets is the shard-bucket pool an installation pre-creates
// (§4.4.1): the B every stage boundary's variant is chosen against, of which
// Variant.Buckets narrows each boundary to the first few it needs.
const ShardBuckets = 8

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

// Reads returns the paper's read-request formula for P workers (Table 2):
// k·P·P^(1/k). It and Writes are what Figure 9 plots; what an exchange bills,
// and what the planner sizes and chooses by, is the exact Requests.
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

// Lists returns the list-request count of the paper's driverless exchange,
// O(P) for all variants (write combining discovers file names and offsets
// via lists). A staged boundary lists nothing: its readers take both from
// the seal manifest in their ready marker (SealedRequests).
func (v Variant) Lists(p int) float64 {
	return float64(v.Levels) * float64(p)
}

// Scans returns how many times the algorithm reads and writes the input
// (one per level).
func (v Variant) Scans() int { return v.Levels }

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

// RequestCount is the exact billed S3 request breakdown of one S→P stage
// boundary under a variant — the analytic counterpart of what the pricing
// meter observes. Unlike the Table 2 asymptotics above (symmetric P-worker
// grid exchange), these counts are exact for the stage boundaries of stage.go
// in a fault-free run: collects happen after the producing fleet sealed, so
// every driverless discovery runs exactly one List pass, and empty partitions
// still ship (schema-only lpq blobs), so no request is ever skipped
// data-dependently. The scale tests hold the meter to these numbers
// integer-exactly.
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
// P-partition stage boundary over the given shard-bucket count on the
// driverless protocol (PublishStage, RegroupStage, CollectStage), which
// discovers commits by listing. Writing G for Groups(P) and nb for min(S,
// buckets) (contiguous sender IDs cover min(S, B) distinct shard buckets):
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

// SealedRequests predicts the exact billed request counts of one S-sender,
// P-partition stage boundary on the staged protocol (PublishSealed,
// RegroupSealed, CollectSealed) — what a boundary the driver seals bills, and
// what the planner chooses variants by. Readers take every commit from the
// seal manifest, so nothing is listed, and a basic writer's seal message is
// its commit, so it Puts no marker. The shard-bucket count changes none of
// it. With G for Groups(P):
//
//	1l       S·P puts       P·S gets
//	1l-wc    S puts         P·S gets
//	2l       S·G+P puts     G·S+P gets
//	2l-wc    S+G puts       G·S+P gets
func (v Variant) SealedRequests(senders, partitions int) RequestCount {
	s, p := int64(senders), int64(partitions)
	if v.Levels >= 2 {
		g := int64(Groups(partitions))
		rc := RequestCount{Puts: s + g, Gets: g*s + p}
		if !v.WriteCombining {
			rc.Puts = s*g + p
		}
		return rc
	}
	rc := RequestCount{Puts: s, Gets: p * s}
	if !v.WriteCombining {
		rc.Puts = s * p
	}
	return rc
}

// Bounds of one writer's entry of a seal manifest (AppendCommit): two
// uvarints of header — the attempt and the offset count — and one per offset,
// which takes at most five bytes while a slot stays under 32 GiB.
const (
	manifestHeaderBytes = 2 * binary.MaxVarintLen32
	manifestOffsetBytes = binary.MaxVarintLen32
)

// ManifestBytes bounds the largest seal manifest a stage of an S-sender,
// P-partition boundary seals on the staged protocol, which is what it adds to
// its consumer's ready marker: per writer the header and, write-combined,
// slots+1 offsets. A single-round boundary's senders have P slots each; a
// multi-level one's have G = Groups(P), and its regroup workers GroupSize(P).
func (v Variant) ManifestBytes(senders, partitions int) int64 {
	entry := func(slots int) int64 {
		if !v.WriteCombining {
			return manifestHeaderBytes
		}
		return manifestHeaderBytes + int64(slots+1)*manifestOffsetBytes
	}
	s := int64(senders)
	if v.Levels >= 2 {
		g := int64(Groups(partitions))
		return max(s*entry(int(g)), g*entry(GroupSize(partitions)))
	}
	return s * entry(partitions)
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
