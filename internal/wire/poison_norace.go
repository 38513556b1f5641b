//go:build !race

package wire

// release empties a record on its way back to the pool.
func release(rec *subRecord) { rec.clear() }

// take readies a record fresh from the pool; release left it empty.
func take(*subRecord) {}

// release empties a request record for its next decode.
func (rec *RequestRecord) release() { rec.clear() }
