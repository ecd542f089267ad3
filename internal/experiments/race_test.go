//go:build race

package experiments

// raceEnabled reports a -race build, whose allocation counts differ
// from a plain build's.
const raceEnabled = true
