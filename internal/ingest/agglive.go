package ingest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"accuracytrader/internal/agg"
)

// AggSnapshot is one epoch of a live aggregation shard: a frozen base
// component (stratum-major columns stored in synopsis order, plus the
// priority-ordered stratified synopsis over them) and the delta rows
// appended since the last compaction. Snapshots are immutable; queries
// running on an acquired snapshot keep answering with its epoch's data
// across any number of swaps.
type AggSnapshot struct {
	comp      *agg.Component
	gen       uint64      // the base's generation: compactions before it was built
	exact     *answerMemo // the shard's base exact answers; nil memoizes nothing
	levels    *answerMemo // the shard's base level answers; nil memoizes nothing
	deltaKeys []int32
	deltaVals []float64
	numKeys   int
}

// Base returns the frozen base component, nil before the first
// compaction. The synopsis engines (agg.GetEngine, agg.ExactResultInto)
// run against it unchanged; delta rows are folded on top with
// agg.Result.Fold.
func (s *AggSnapshot) Base() *agg.Component { return s.comp }

// NumKeys returns the group-key domain size.
func (s *AggSnapshot) NumKeys() int { return s.numKeys }

// Rows returns the total rows visible at this epoch (base + delta).
func (s *AggSnapshot) Rows() int {
	n := len(s.deltaKeys)
	if s.comp != nil {
		n += s.comp.T.NumRows()
	}
	return n
}

// DeltaRows returns the rows not yet folded into the base synopsis.
func (s *AggSnapshot) DeltaRows() int { return len(s.deltaKeys) }

// QueryLevel answers the query from the ladder-level samples of the
// base plus an exact delta fold, accumulating into res's reused buffers
// (re-zeroed first); it returns the (possibly re-anchored) result. The
// path is allocation-free once pools are warm: one pooled engine over
// the immutable base, one linear scan over the delta slices. Delta rows
// contribute with zero variance — an unmerged append can only tighten
// the CLT bounds, never loosen them — which is what keeps Bounded-class
// accuracy floors honest between compactions. The base's part comes
// from the shard's level memo when this base already answered the
// query at this level, exactly as for Exact.
func (s *AggSnapshot) QueryLevel(res agg.Result, q agg.Query, level int) agg.Result {
	res = res.Reset(s.numKeys)
	if s.comp != nil {
		k := keyOf(level, q)
		if !s.levels.load(s.gen, k, res) {
			e := agg.GetEngine(s.comp, q, level)
			e.ProcessSynopsis()
			res.Merge(e.Result())
			e.Release()
			s.levels.store(s.gen, k, res)
		}
	}
	res.Fold(q, s.deltaKeys, s.deltaVals)
	return res
}

// Exact answers the query by scanning every visible row, accumulating
// into res's reused buffers; it returns the (possibly re-anchored)
// result. Row order is base strata in synopsis order, then the delta in
// arrival order — exactly the order a frozen rebuild scans once the
// delta has been compacted, so results at merged epochs are
// bit-identical to the rebuild's. The base's part comes from the
// shard's exact memo when this base already answered the query: a base
// is immutable, so its answer is the one the scan would produce, bit
// for bit, and only the delta is scanned again.
func (s *AggSnapshot) Exact(res agg.Result, q agg.Query) agg.Result {
	res = res.Reset(s.numKeys)
	if s.comp != nil {
		k := keyOf(exactLevel, q)
		if !s.exact.load(s.gen, k, res) {
			res = agg.ExactResultInto(res, s.comp, q)
			s.exact.store(s.gen, k, res)
		}
	}
	res.Fold(q, s.deltaKeys, s.deltaVals)
	return res
}

// memoArrayBudget is the bytes a live shard's memo spends per array an
// answer stores: 192 answers over 48 group keys. On the mixed live
// workload a shard's base sees about 240 distinct level queries between
// compactions, and a smaller level memo gave back most of the gain
// (README § The agg scan's budget). The exact memo stores two arrays
// an answer (144 KiB), the level memo four (288 KiB).
const memoArrayBudget = 72 << 10

// exactLevel is the level a memo key gives an Exact answer.
const exactLevel = -1

// answerMemo holds a live shard's base answers to the queries its
// current base has answered: width arrays per answer, Sum and Cnt for
// Exact, then SumVar and CntVar for a ladder level. An answer is keyed
// by the base's generation, never by the base itself, so the memo pins
// no base a compaction replaced. The slots are allocated once and fill
// once per generation: a full memo keeps its generation's first
// answers, and a new generation frees every slot. Publishes stale the
// front cache's answers without touching the base, so the queries that
// come back are the ones answered first; replacing them would evict
// the answers about to repeat.
type answerMemo struct {
	mu    sync.Mutex
	width int       // arrays per answer: 2 (Exact) or 4 (a level)
	gen   uint64    // the generation every filled slot belongs to
	keys  []memoKey // slots [0, used) hold answers
	ans   []float64 // slot i's arrays, one after the other, at [width·numKeys·i, width·numKeys·(i+1))
	used  int
	hits  uint64 // answers served from the memo
}

// memoKey names one query at one level (exactLevel for Exact) by its
// operator and its bounds' bits, so bounds that compare equal but
// differ in bits (±0, NaNs) are different queries: a miss, never a
// wrong answer.
type memoKey struct {
	level  int
	op     agg.Op
	lo, hi uint64
}

func keyOf(level int, q agg.Query) memoKey {
	return memoKey{level, q.Op, math.Float64bits(q.Lo), math.Float64bits(q.Hi)}
}

// newAnswerMemo returns a memo of width arrays per answer for a shard
// over numKeys group keys: memoArrayBudget's worth of answers per
// array, none when one answer's array exceeds it.
func newAnswerMemo(numKeys, width int) *answerMemo {
	n := memoArrayBudget / (8 * numKeys)
	return &answerMemo{width: width, keys: make([]memoKey, n), ans: make([]float64, width*numKeys*n)}
}

// arrays returns res's four arrays in the order a memo stores them; an
// answer of width w is the first w.
func arrays(res agg.Result) [4][]float64 {
	return [4][]float64{res.Sum, res.Cnt, res.SumVar, res.CntVar}
}

// find returns the slot answering k at generation gen, or -1. Caller
// holds m.mu.
func (m *answerMemo) find(gen uint64, k memoKey) int {
	if gen != m.gen {
		return -1
	}
	for i, sk := range m.keys[:m.used] {
		if sk == k {
			return i
		}
	}
	return -1
}

// load copies the base answer to k at generation gen into res, whose
// arrays are zeroed and cover the shard's keys, and reports whether
// the memo had it.
func (m *answerMemo) load(gen uint64, k memoKey, res agg.Result) bool {
	if m == nil || len(m.keys) == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.find(gen, k)
	if i < 0 {
		return false
	}
	n := len(res.Sum)
	at := m.width * n * i
	a := arrays(res)
	for _, dst := range a[:m.width] {
		copy(dst, m.ans[at:at+n])
		at += n
	}
	m.hits++
	return true
}

// store keeps res, the base answer to k at generation gen, in a free
// slot. An answer of a generation older than the memo's is dropped
// (its base is gone), and so is one that finds every slot filled.
func (m *answerMemo) store(gen uint64, k memoKey, res agg.Result) {
	if m == nil || len(m.keys) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case gen < m.gen || m.find(gen, k) >= 0:
		return
	case gen > m.gen:
		m.gen, m.used = gen, 0
	case m.used == len(m.keys):
		return
	}
	i := m.used
	m.used++
	m.keys[i] = k
	n := len(res.Sum)
	at := m.width * n * i
	a := arrays(res)
	for _, src := range a[:m.width] {
		copy(m.ans[at:at+n], src)
		at += n
	}
}

// hitCount returns how many answers the memo served.
func (m *answerMemo) hitCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// AggStats counts a live aggregation shard's ingest activity.
type AggStats struct {
	Appends       uint64 // rows ever appended
	Publishes     uint64 // epoch swaps, compactions included
	Compactions   uint64 // base rebuilds
	ExactMemoHits uint64 // exact answers whose base part the memo held, not a scan
	LevelMemoHits uint64 // level answers whose base part the memo held, not a scan
	Rows          int    // rows appended (published or not)
	BaseRows      int    // rows folded into the current base
	StagedRows    int    // appended but not yet visible in any snapshot
}

// AggLive is the online update path for one aggregation shard: a base
// whose columns are stored stratum by stratum in synopsis order, an
// append tail holding only the rows not yet compacted, per-stratum
// reservoirs kept ordered by deterministic sampling priority, and
// epoch-swapped snapshots. Appends stage rows invisibly; PublishDelta
// makes them visible as an exactly scanned delta segment; Compact folds
// everything into a new base synopsis whose per-level sample lengths
// are recomputed for the grown strata (reservoir maintenance), keeping
// each level's sampling rate honest. All mutators serialize on one
// mutex; readers never lock it. Readers share two memos of base
// answers per shard, one for Exact and one for the ladder levels, each
// behind its own mutex.
//
// Rows are named by their arrival index, the row id the sampling
// priority hashes: base position i holds row strata[i], and tail
// position j holds row based+j.
type AggLive struct {
	numKeys int
	cfg     agg.Config
	seed    uint64

	mu        sync.Mutex
	keys      []int32   // the tail: rows [based, based+len(keys)), arrival order
	vals      []float64 // the tail's values
	based     int       // rows folded into the base synopsis
	published int       // rows visible in the current snapshot
	base      *agg.Component
	baseVals  []float64 // the base's values, stratum-major, (priority,row)-ordered within a stratum
	strata    []int32   // the row id at each base position: every stratum's reservoir
	spare     []int32   // the previous strata array, rewritten by the next Compact
	off       []int32   // stratum s owns base positions [off[s], off[s+1])
	oldest    time.Time // arrival of the oldest row not yet visible
	stats     AggStats
	exact     *answerMemo
	levels    *answerMemo

	snaps Epochs[AggSnapshot]
}

// NewAggLive returns an empty live shard over a key domain of numKeys
// group keys, with an initial empty snapshot already published (epoch
// 1). cfg drives both the ladder (rates, sample floor) and, via its
// seed, the deterministic per-row sampling priorities.
func NewAggLive(numKeys int, cfg agg.Config) *AggLive {
	if numKeys <= 0 {
		panic("ingest: live shard needs a positive key domain")
	}
	l := &AggLive{numKeys: numKeys, cfg: cfg, seed: cfg.Seed ^ 0x1b9a5e11d0e57a1e}
	l.off = make([]int32, numKeys+1)
	l.exact = newAnswerMemo(numKeys, 2)
	l.levels = newAnswerMemo(numKeys, 4)
	l.snaps.Publish(&AggSnapshot{numKeys: numKeys})
	return l
}

// Snapshot acquires the current snapshot and its epoch — one atomic
// load, no allocation.
func (l *AggLive) Snapshot() (*AggSnapshot, uint64) { return l.snaps.Acquire() }

// Epoch returns the current epoch.
func (l *AggLive) Epoch() uint64 { return l.snaps.Epoch() }

// rows returns the number of rows ever appended. Caller holds l.mu.
func (l *AggLive) rows() int { return l.based + len(l.keys) }

// Stats returns a snapshot of the ingest counters.
func (l *AggLive) Stats() AggStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Rows = l.rows()
	st.BaseRows = l.based
	st.StagedRows = l.rows() - l.published
	st.ExactMemoHits = l.exact.hitCount()
	st.LevelMemoHits = l.levels.hitCount()
	return st
}

// Append stages a batch of rows. The batch becomes visible atomically
// at the next PublishDelta (or Compact); a key outside [0, numKeys)
// rejects the whole batch. Returns the number of rows accepted.
func (l *AggLive) Append(keys []int32, vals []float64) (int, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("ingest: append shape %d keys, %d vals", len(keys), len(vals))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range keys {
		if k < 0 || int(k) >= l.numKeys {
			return 0, fmt.Errorf("ingest: key %d outside domain [0,%d)", k, l.numKeys)
		}
	}
	if l.rows() == l.published {
		l.oldest = time.Now()
	}
	l.keys = append(l.keys, keys...)
	l.vals = append(l.vals, vals...)
	l.stats.Appends += uint64(len(keys))
	return len(keys), nil
}

// publishLocked swaps in a snapshot exposing rows [0, n). Caller holds
// l.mu.
func (l *AggLive) publishLocked(n int) (uint64, int, time.Duration) {
	var lag time.Duration
	if n > l.published && !l.oldest.IsZero() {
		lag = time.Since(l.oldest)
		l.oldest = time.Time{}
	}
	moved := n - l.published
	d := n - l.based
	snap := &AggSnapshot{
		comp:      l.base,
		gen:       l.stats.Compactions,
		exact:     l.exact,
		levels:    l.levels,
		deltaKeys: l.keys[:d:d],
		deltaVals: l.vals[:d:d],
		numKeys:   l.numKeys,
	}
	l.published = n
	l.stats.Publishes++
	return l.snaps.Publish(snap), moved, lag
}

// PublishDelta makes every staged row visible by swapping in a fresh
// snapshot that extends the delta segment over the append tail (no
// copying — the snapshot captures capacity-clamped slice prefixes, and
// appends only ever write past them). It returns the new epoch, the
// number of rows that became visible, and the freshness lag of the
// oldest of them; a no-op publish (nothing staged) keeps the current
// epoch and returns 0 rows.
func (l *AggLive) PublishDelta() (uint64, int, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.rows(); n > l.published {
		return l.publishLocked(n)
	}
	return l.snaps.Epoch(), 0, 0
}

// Compact folds all appended rows into a new base: per stratum, the
// tail's rows are priority-sorted and merged with the old reservoir,
// and the merge writes the new base's columns itself, so base row i is
// synopsis position i and the synopsis's row order is the identity.
// The sample ladder's per-level lengths are then recomputed for the
// grown strata and a fresh base component is published with an empty
// delta over a fresh tail — published snapshots keep the old tail and
// the old base, and nothing either holds is written again. Because the
// per-row priority is a pure function of (seed, row id), the merged
// order — and therefore every sample prefix and every query answer — is
// bit-identical to rebuilding the synopsis from scratch over the same
// rows. Returns the new epoch, the rows folded, and the freshness lag
// of the oldest row that became visible.
func (l *AggLive) Compact() (uint64, int, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.rows()
	if n == l.based {
		return l.snaps.Epoch(), 0, 0, nil
	}
	// No snapshot sees a strata array, so the one the last compaction
	// replaced is rewritten: the reservoirs cost growth, not a copy each.
	ids := l.spare[:0]
	if cap(ids) < n {
		ids = make([]int32, 0, n+n/4) // room for the next compactions' growth
	}
	merged := run{ids: ids, vals: make([]float64, 0, n)}
	keys := make([]int32, n)
	off := make([]int32, l.numKeys+1)
	// The tail, bucketed by stratum in arrival order: a counting sort
	// over its keys. Placing row j moves at[k] from the start of k's
	// bucket towards its end, where k+1's starts.
	at := make([]int, l.numKeys+1)
	for _, k := range l.keys {
		at[k+1]++
	}
	for s := 0; s < l.numKeys; s++ {
		at[s+1] += at[s]
	}
	tail := make([]pendingRow, len(l.keys))
	for j, k := range l.keys {
		id := int32(l.based + j)
		tail[at[k]] = pendingRow{Priority(l.seed, id), id, l.vals[j]}
		at[k]++
	}
	next := 0
	for s := 0; s < l.numKeys; s++ {
		seg := tail[next:at[s]]
		next = at[s]
		slices.SortFunc(seg, func(x, y pendingRow) int {
			if c := cmp.Compare(x.p, y.p); c != 0 {
				return c
			}
			return cmp.Compare(x.id, y.id)
		})
		lo, hi := l.off[s], l.off[s+1]
		merged = mergeByPriority(merged, l.seed, run{ids: l.strata[lo:hi], vals: l.baseVals[lo:hi]}, seg)
		off[s+1] = int32(len(merged.ids))
		for i := off[s]; i < off[s+1]; i++ {
			keys[i] = int32(s)
		}
	}
	// The reservoirs hold every row now, built or not: the synopsis fails
	// only for a config without a valid rate, which fails every
	// compaction alike while the tail keeps serving the rows.
	l.strata, l.spare = merged.ids, l.strata
	l.baseVals, l.off = merged.vals, off
	t := agg.TableFromColumns(keys, merged.vals, l.numKeys)
	syn, err := agg.SynopsisFromOrder(t, l.cfg, identityOrder(n), off)
	if err != nil {
		return l.snaps.Epoch(), 0, 0, err
	}
	folded := n - l.based
	l.base = &agg.Component{T: t, Syn: syn}
	l.keys, l.vals = nil, nil
	l.based = n
	l.stats.Compactions++
	ep, _, lag := l.publishLocked(n)
	return ep, folded, lag, nil
}

// run is a (priority,row)-ordered list of row ids with each id's value
// at the same position.
type run struct {
	ids  []int32
	vals []float64
}

// pendingRow is an appended row on its way into a reservoir, its
// priority hashed once for the sort and the merge.
type pendingRow struct {
	p   uint64
	id  int32
	val float64
}

// mergeByPriority merges the sorted pending rows b into the reservoir
// run a, appending each row's id and value to dst in (priority,row)
// order. b is one compaction's appends against a whole reservoir, so
// each of its rows gallops to its place in a and the stretch of a
// before it is copied whole: a priority hash per probe and two copies
// per stretch, not a hash and two appends per row of a.
func mergeByPriority(dst run, seed uint64, a run, b []pendingRow) run {
	for _, r := range b {
		k := gallop(a.ids, seed, r.p, r.id)
		dst.ids = append(append(dst.ids, a.ids[:k]...), r.id)
		dst.vals = append(append(dst.vals, a.vals[:k]...), r.val)
		a.ids, a.vals = a.ids[k:], a.vals[k:]
	}
	dst.ids = append(dst.ids, a.ids...)
	dst.vals = append(dst.vals, a.vals...)
	return dst
}

// gallop returns how many of the (priority,row)-ordered ids sort before
// row id of priority p: it probes 1, 2, 4, … ids ahead until one does
// not, then binary-searches the last step, so a row landing k ids in
// costs about 2·log2(k) hashes.
func gallop(ids []int32, seed, p uint64, id int32) int {
	sortsBefore := func(i int) bool { return before(Priority(seed, ids[i]), ids[i], p, id) }
	lo, step := 0, 1 // ids[:lo] sort before the row
	for lo+step <= len(ids) && sortsBefore(lo+step-1) {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, len(ids)) // ids[hi:] do not
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sortsBefore(m) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// identity is the row order every compacted base shares: a base stores
// its rows in synopsis order, so its order is 0, 1, 2, …. Element i is
// i in every array it ever had, so shards (and tests) can share it
// without seeing each other; it only grows, and an append writes past
// every prefix a published base holds, never into one.
var identity struct {
	sync.Mutex
	ids []int32
}

// identityOrder returns the identity order over n rows.
func identityOrder(n int) []int32 {
	identity.Lock()
	defer identity.Unlock()
	for i := len(identity.ids); i < n; i++ {
		identity.ids = append(identity.ids, int32(i))
	}
	return identity.ids[:n:n]
}

// BuildAggSnapshot is the frozen-rebuild reference: it constructs, in
// one shot, the compacted snapshot a live shard converges to after
// appending exactly these rows (in any batching) and compacting. The
// property harness pins live interleavings against it bit-for-bit; it
// has no memo, so every answer it gives is a scan.
func BuildAggSnapshot(numKeys int, cfg agg.Config, keys []int32, vals []float64) (*AggSnapshot, error) {
	l := NewAggLive(numKeys, cfg)
	if _, err := l.Append(keys, vals); err != nil {
		return nil, err
	}
	if _, _, _, err := l.Compact(); err != nil {
		return nil, err
	}
	snap, _ := l.Snapshot()
	frozen := *snap
	frozen.exact, frozen.levels = nil, nil
	return &frozen, nil
}
