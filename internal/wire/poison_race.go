//go:build race

package wire

import (
	"math"

	"accuracytrader/internal/poison"
)

// Under the race detector a released record is poisoned, not cleared,
// until it is used again, so a holder that reads it after releasing it
// sees values no real record carries, where a cleared record would pass
// as an empty one; a second release panics.
//
// A sub-reply record: every float of its backing reads NaN, its status
// and kind are out of range, and its FrameLen, which no reply built or
// decoded has negative, marks it released. A sender that encodes it
// sends those values.
//
// A request record: every rating of its backing reads item -1 and score
// NaN, every target -1, its kind and SLO are out of range, its inline
// string bytes read poisonByte (so a kept tenant or query changes under
// its holder), and its FrameLen marks it released.
const (
	poisonStatus   = 0xEE
	poisonKind     = Kind(0xEE)
	poisonByte     = 0xEE
	releasedMarker = -1
)

func release(rec *subRecord) {
	poison.Released(rec.rep.FrameLen == releasedMarker, "wire: sub-reply")
	poison.NaN(rec.floats)
	rec.rep.Status, rec.rep.Kind, rec.rep.FrameLen = poisonStatus, poisonKind, releasedMarker
}

// take clears a poisoned record for its next use.
func take(rec *subRecord) { rec.clear() }

// release poisons a request record; its next Decode overwrites every
// field a request reads.
func (rec *RequestRecord) release() {
	poison.Released(rec.req.FrameLen == releasedMarker, "wire: request record")
	poison.Fill(rec.ratings, Rating{Item: -1, Score: math.NaN()})
	poison.Fill(rec.targets, -1)
	poison.Fill(rec.inline[:], poisonByte)
	rec.req.Kind, rec.req.SLO, rec.req.FrameLen = poisonKind, poisonByte, releasedMarker
}
