package driver

import (
	"fmt"
	"time"

	"lambada/internal/exchange"
)

// ExchangeConfig configures the S3 namespace stage boundaries shuffle
// through: whether publishes write-combine, and receiver-side waiting.
type ExchangeConfig struct {
	// Variant is the base of every boundary's variant, of which only
	// WriteCombining is read. Levels and Buckets are resolved per boundary by
	// stageplan.ChooseVariant (StageConfig.ExchangeLevels pins the round
	// count) and ignored here.
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

// exchangeShardBuckets is the number of shard buckets an installation
// pre-creates (§4.4.1); ChooseVariant narrows each boundary to the first few
// its request pressure needs.
const exchangeShardBuckets = 8

// exchangeBucketName names the i-th shard bucket of an installation.
func exchangeBucketName(fn string, i int) string {
	return fmt.Sprintf("%s-xshard-%d", fn, i)
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Session) InstallExchange() []string {
	buckets := make([]string, exchangeShardBuckets)
	for i := range buckets {
		buckets[i] = exchangeBucketName(d.cfg.FunctionName, i)
		d.dep.S3.MustCreateBucket(buckets[i])
	}
	return buckets
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Driver) InstallExchange() []string { return d.sess.InstallExchange() }
