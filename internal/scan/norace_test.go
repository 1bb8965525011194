//go:build !race

package scan

const raceEnabled = false
