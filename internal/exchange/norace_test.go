//go:build !race

package exchange

const raceEnabled = false
