//go:build race

package wire

// raceEnabled reports that the race detector is active; it randomizes
// sync.Pool reuse, so pooled decodes' allocation counts are not asserted
// under it.
const raceEnabled = true
