//go:build !race

package machine_test

const raceEnabled = false
