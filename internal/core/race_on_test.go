//go:build race

package core

// raceEnabled reports that the race detector is active; it randomizes
// sync.Pool reuse, so allocation budgets are not asserted under it.
const raceEnabled = true
