package driver

import (
	"fmt"
	"time"

	"lambada/internal/exchange"
)

// ExchangeConfig configures the S3 namespace stage boundaries shuffle
// through: their algorithm, and receiver-side waiting.
type ExchangeConfig struct {
	// Variant is the base of every boundary's variant, the planner's
	// stageplan.Config.Exchange. WriteCombining is inherited; Levels pins
	// every boundary's round count — 1 single-round, 2 the multi-level
	// boundary with its regroup round (§4.4.2) — and 0, the default, leaves
	// each boundary to the analytic request model (stageplan.ChooseVariant):
	// wide fleets go multi-level, narrow ones stay single-round. Buckets is
	// ignored: ChooseVariant picks it.
	Variant exchange.Variant
	// Poll and MaxWait configure receiver-side waiting.
	Poll    time.Duration
	MaxWait time.Duration
}

// DefaultExchangeConfig write-combines; rounds and shard buckets per boundary
// are left to the request model.
func DefaultExchangeConfig() ExchangeConfig {
	return ExchangeConfig{
		Variant: exchange.Variant{WriteCombining: true},
		Poll:    50 * time.Millisecond,
		MaxWait: 10 * time.Minute,
	}
}

// exchangeBucketName names the i-th shard bucket of an installation.
func exchangeBucketName(fn string, i int) string {
	return fmt.Sprintf("%s-xshard-%d", fn, i)
}

// InstallExchange creates the exchange.ShardBuckets shard buckets (free,
// done once, §4.4.1).
func (d *Session) InstallExchange() []string {
	buckets := make([]string, exchange.ShardBuckets)
	for i := range buckets {
		buckets[i] = exchangeBucketName(d.cfg.FunctionName, i)
		d.dep.S3.MustCreateBucket(buckets[i])
	}
	return buckets
}
