//go:build race

package cf

// raceEnabled reports that the race detector is active; it randomizes
// sync.Pool reuse, so allocation-count assertions are skipped.
const raceEnabled = true
