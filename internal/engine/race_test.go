//go:build race

package engine

// raceEnabled: the race detector pads allocations, so tests that bound
// allocated bytes skip themselves under it.
const raceEnabled = true
