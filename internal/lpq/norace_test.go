//go:build !race

package lpq

const raceEnabled = false
