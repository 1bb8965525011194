package driver

// SpeculateConfig enables driver-side straggler mitigation: once a quorum
// of workers has reported, any worker still missing after a multiple of the
// median response time is re-invoked ("backup requests"). The first result
// per worker wins; duplicates are discarded. This is the driver-side
// counterpart of the aggressive-timeouts-and-retries theme of §5.5
// (footnote 17): tail latencies propagate, so the driver cuts the tail.
//
// Each stage of a plan arms independently over its own fleet, and backups
// are launched as a new attempt whose exchange boundary names cannot race the
// original's (the first sealed attempt wins, and the driver deletes every
// attempt's objects by key after the query).
type SpeculateConfig struct {
	// Enabled turns speculation on.
	Enabled bool
	// MaxRetries bounds re-invocations per worker (default 1).
	MaxRetries int
}

const (
	// speculateQuorum is the fraction of a stage's workers that must report
	// before speculation arms.
	speculateQuorum = 0.75
	// speculateLatencyFactor multiplies the median response time to form
	// the straggler deadline.
	speculateLatencyFactor = 3
)

// DefaultSpeculateConfig returns the standard backup-request policy.
func DefaultSpeculateConfig() SpeculateConfig {
	return SpeculateConfig{Enabled: true, MaxRetries: 1}
}
