//go:build race

package structures

// raceEnabled reports a -race build, which makes instrumented tests
// many times slower.
const raceEnabled = true
