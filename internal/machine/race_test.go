//go:build race

package machine_test

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so pooled objects are allocated again.
const raceEnabled = true
