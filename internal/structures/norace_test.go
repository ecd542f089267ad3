//go:build !race

package structures

const raceEnabled = false
