package cf

// DeltaScorer folds users that are not (yet) in a component's matrix —
// streaming-ingest delta users awaiting compaction — into a partial
// Result through the same bound-request scorer ExactResultInto runs
// over every matrix user. Scoring delta users through the one kernel
// keeps a live snapshot's exact path bit-identical to rebuilding the
// matrix with the delta users appended. A DeltaScorer is reusable
// across requests and allocation-free once its buffers have grown to
// the working set.
type DeltaScorer struct {
	sc      scorer
	nItems  int
	targets []int32
	bound   bool
}

// Bind prepares the scorer for one request's targets over an item
// space of nItems items. The table is stamped once, at the request's
// first Add or AddMatrix, when its active ratings are known too.
func (d *DeltaScorer) Bind(nItems int, targets []int32) {
	d.nItems, d.targets, d.bound = nItems, targets, false
}

// bindActive stamps the table unless active is the vector already
// bound since the last Bind.
func (d *DeltaScorer) bindActive(active []Rating) {
	if d.bound && sameVector(d.sc.active, active) {
		return
	}
	d.sc.bind(d.nItems, active, d.targets)
	d.bound = true
}

// sameVector reports whether a and b are the same slice (not merely
// equal ones).
func sameVector(a, b []Rating) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Add accumulates one delta user — ratings sorted by item, mean
// precomputed as Matrix.SetUser computes it — into res. active is the
// request's sorted rating vector; it must not change between a Bind and
// the Adds that follow it.
func (d *DeltaScorer) Add(res Result, active []Rating, rs []Rating, mean float64) {
	d.bindActive(active)
	d.sc.fold(res, rs, mean)
}

// AddMatrix accumulates every user of m, in id order, into res: the
// base scan of a live snapshot, under the binding its delta fold then
// reuses.
func (d *DeltaScorer) AddMatrix(res Result, active []Rating, m *Matrix) {
	d.bindActive(active)
	for u := 0; u < m.NumUsers(); u++ {
		d.sc.foldUser(res, m, u)
	}
}
