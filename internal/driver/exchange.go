package driver

import (
	"fmt"
	"time"

	"lambada/internal/exchange"
)

// ExchangeConfig configures the S3 namespace stage boundaries shuffle
// through: the base exchange variant, the shard buckets (pre-created at
// installation time, §4.4.1) and receiver-side waiting.
type ExchangeConfig struct {
	Variant exchange.Variant
	// Buckets is the shard-bucket count created at Install.
	Buckets int
	// Poll and MaxWait configure receiver-side waiting.
	Poll    time.Duration
	MaxWait time.Duration
}

// DefaultExchangeConfig uses the two-level write-combining variant over
// eight shard buckets.
func DefaultExchangeConfig() ExchangeConfig {
	return ExchangeConfig{
		Variant: exchange.Variant{Levels: 2, WriteCombining: true},
		Buckets: 8,
		Poll:    50 * time.Millisecond,
		MaxWait: 10 * time.Minute,
	}
}

// exchangeBucketName names the i-th shard bucket of an installation.
func exchangeBucketName(fn string, i int) string {
	return fmt.Sprintf("%s-xshard-%d", fn, i)
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Session) InstallExchange(cfg ExchangeConfig) []string {
	buckets := make([]string, cfg.Buckets)
	for i := range buckets {
		buckets[i] = exchangeBucketName(d.cfg.FunctionName, i)
		d.dep.S3.MustCreateBucket(buckets[i])
	}
	return buckets
}

// InstallExchange creates the shard buckets (free, done once, §4.4.1).
func (d *Driver) InstallExchange(cfg ExchangeConfig) []string { return d.sess.InstallExchange(cfg) }
