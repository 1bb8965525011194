package driver

import (
	"testing"
	"time"
)

// The recovery scenarios on hand-picked plans: stragglers and stalled
// fleets, an aborted run's leftovers under the same query ID, and queries
// sharing a session — runCase cases held to their knobs' counts, as the
// generated cases of TestGeneratedPlans are on every plan shape.

// recoveryQ12 is q12 over the data of seed data, LINEITEM in li files and
// ORDERS in two, both shuffled into two partitions over single-round
// boundaries — and then edited.
func recoveryQ12(data int64, li int, edit func(*planCase)) planCase {
	c := planCase{Q: q12Exact(), Layout: layout{Data: data, LI: li, Ord: 2, Opts: stdLayout.Opts}, Partitions: 2, BroadcastRowLimit: -1, Levels: 1}
	edit(&c)
	return c
}

// stalling stalls s with speculation on.
func stalling(s stall) func(*planCase) {
	return func(c *planCase) { c.Speculate, c.Stall = true, s }
}

// q6Case is Q6 over LINEITEM in six files — one stage, a worker per file its
// year leaves — and then edited.
func q6Case(edit func(*planCase)) planCase {
	c := planCase{Q: q6(), Tol: 1e-9, Layout: layout{Data: 41, LI: 6, Opts: stdLayout.Opts}}
	edit(&c)
	return c
}

func TestSpeculationCutsStragglerTail(t *testing.T) {
	runCase(t, q6Case(stalling(stall{stallOne, 0, time.Minute})))
}

func TestSpeculationIdleOnHealthyFleet(t *testing.T) {
	runCase(t, q6Case(func(c *planCase) { c.Speculate = true }))
}

// A worker the admission cap held back behind a stalled one is backed up only
// if it straggles itself: both straggler clocks run from its own Invoke.
func TestCappedStallBacksUpOnlyTheStalled(t *testing.T) {
	runCase(t, q6Case(func(c *planCase) { stalling(stall{stallOne, 0, time.Minute})(c); c.MaxInFlight = 1 }))
}

func TestStagedCappedStallBacksUpOnlyTheStalled(t *testing.T) {
	runCase(t, recoveryQ12(17, 4, func(c *planCase) { stalling(stall{stallOne, 1, 2 * time.Minute})(c); c.MaxInFlight = 1 }))
}

func TestStagedSpeculationCompletesViaBackup(t *testing.T) {
	runCase(t, recoveryQ12(17, 4, stalling(stall{stallOne, 0, 2 * time.Minute})))
}

func TestStagedSpeculationDESDeterministic(t *testing.T) {
	runCase(t, recoveryQ12(17, 4, func(c *planCase) { stalling(stall{stallOne, 1, 2 * time.Minute})(c); c.Basic = true }))
}

func TestStagedMultiLevelSpeculationCompletesViaBackup(t *testing.T) {
	runCase(t, recoveryQ12(17, 4, func(c *planCase) { stalling(stall{stallOne, 1, 2 * time.Minute})(c); c.Levels = 2 }), wantRegroups(2))
}

func TestStagedAllStragglersRecovered(t *testing.T) {
	runCase(t, recoveryQ12(23, 4, stalling(stall{stallAll, 1, 2 * time.Minute})))
}

func TestStagedSubQuorumStallRecovered(t *testing.T) {
	runCase(t, recoveryQ12(67, 6, stalling(stall{stallAllButOne, 1, 2 * time.Minute})))
}

func TestStagedZombieSealDiscarded(t *testing.T) {
	runCase(t, recoveryQ12(41, 6, func(c *planCase) { c.Zombie = true }))
}

func TestStagedZombieSealDESDeterministic(t *testing.T) {
	runCase(t, recoveryQ12(41, 6, func(c *planCase) { c.Zombie, c.Basic = true, true }))
}

func TestStagedMultiLevelZombieSealDiscarded(t *testing.T) {
	runCase(t, recoveryQ12(41, 6, func(c *planCase) { c.Zombie, c.Levels = true, 2 }), wantRegroups(2))
}

func TestStagedSealFromUnknownWorkerDiscarded(t *testing.T) {
	runCase(t, recoveryQ12(61, 4, func(c *planCase) { c.Zombie = true }))
}

func TestStagedStaleArtifactsDoNotPoisonRetry(t *testing.T) {
	runCase(t, recoveryQ12(29, 4, func(c *planCase) { c.Zombie, c.Basic, c.Goroutines = true, true, true }))
}

func TestSessionEpochFenceAcrossSessions(t *testing.T) {
	runCase(t, recoveryQ12(11, 4, func(c *planCase) { c.Zombie, c.Goroutines = true, true }))
}

func TestSessionConcurrentStagedByteIdentical(t *testing.T) {
	runCase(t, recoveryQ12(33, 4, func(c *planCase) { c.MaxInFlight, c.Concurrent = 12, 4 }))
}

func TestSessionChaosConcurrentQueries(t *testing.T) {
	runCase(t, recoveryQ12(33, 4, func(c *planCase) { c.MaxInFlight, c.Speculate, c.Faults, c.Concurrent = 3, true, chaosPlanQ12(), 2 }),
		configure(func(cfg *Config) { cfg.RetryBudget = 4096 }))
}

func TestConcurrentQueriesPartitionTheMeter(t *testing.T) {
	runCase(t, recoveryQ12(33, 4, func(c *planCase) { c.Levels, c.Concurrent = 2, 2 }), wantRegroups(2))
}
