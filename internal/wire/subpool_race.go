//go:build race

package wire

import "math"

// Under the race detector a released sub-reply record is poisoned, not
// cleared, until the pool hands it out again: every float of its backing
// reads NaN, its status and kind are out of range, and its FrameLen, which
// no reply built or decoded has negative, marks it released. A holder that
// reads the record after releasing it, or a sender that encodes it, then
// sees values no real reply carries, where a cleared record would pass as
// an empty answer; a second release panics.
const (
	poisonStatus   = 0xEE
	poisonKind     = Kind(0xEE)
	releasedMarker = -1
)

func release(rec *subRecord) {
	if rec.rep.FrameLen == releasedMarker {
		panic("wire: sub-reply released twice")
	}
	floats := rec.floats[:cap(rec.floats)]
	for i := range floats {
		floats[i] = math.NaN()
	}
	rec.rep.Status, rec.rep.Kind, rec.rep.FrameLen = poisonStatus, poisonKind, releasedMarker
}

// take clears a poisoned record for its next use.
func take(rec *subRecord) { rec.clear() }
