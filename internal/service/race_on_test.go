//go:build race

package service_test

// raceEnabled reports that the race detector is active; it randomizes
// sync.Pool reuse, so allocation counts are not asserted under it.
const raceEnabled = true
