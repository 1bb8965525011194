//go:build race

package lpq

// raceEnabled: the race detector pads allocations, so tests that bound
// allocated bytes skip themselves under it.
const raceEnabled = true
