package cf

import (
	"math"
	"math/bits"
)

// scorer is the one CF kernel: bound to a request, it folds a neighbour
// (a matrix user or an aggregated user) into a partial Result.
//
// Binding stamps one per-item table with, for every item the request
// mentions, the index of the active user's rating of it and the first
// target slot predicting it. Entries are validated by an epoch stamp,
// so nothing is cleared between requests. Binding also sets two item
// bitmaps: the items the active user rated and the target items.
//
// A matrix user whose row repeats no item is folded by its item bitmap
// (foldBits): intersecting its words with the request's finds exactly
// the co-rated items and the rated targets, and each one's rating is
// located in the row by rank. Every other neighbour is folded by one
// stream over its ratings with a table probe each (fold). Either way
// co-rated score pairs go into pairs and rated targets into hits, both
// in item order; the Pearson weight is computed over the pairs and the
// hits are applied at it — the floating-point operations Weight and the
// retained naive kernels perform, in the same order per accumulator, so
// every Num/Den is bit-identical to them.
type scorer struct {
	tab   []itemEntry
	epoch uint32
	// active is the bound request's rating vector; the folds read the
	// scores the table's act indices point at.
	active []Rating
	// actBits and tgtBits are the bound request's item bitmaps, over the
	// bound item space: the items the active user rated, the targets.
	actBits []uint64
	tgtBits []uint64
	// next[slot] chains duplicate targets of one item, -1 terminated.
	next  []int32
	pairs []scorePair
	hits  []targetHit
}

// itemEntry is one item's table row, valid when stamp equals the
// scorer's epoch. act and tgt are -1 when the request's active user did
// not rate the item / no target predicts it.
type itemEntry struct {
	stamp uint32
	act   int32 // first index of the item in the active vector
	tgt   int32 // first target slot predicting the item
}

type scorePair struct{ x, y float64 } // active score, neighbour score

type targetHit struct {
	slot  int32
	score float64
}

// bind prepares the scorer for one request over an nItems item space.
// Items outside [0, nItems) — a wire request may carry any — are left
// out of the table and the bitmaps: no neighbour rates them, so an
// out-of-range active rating pairs with nothing and an out-of-range
// target keeps a zero denominator and predicts the active mean.
func (s *scorer) bind(nItems int, active []Rating, targets []int32) {
	if len(s.tab) < nItems {
		s.tab = make([]itemEntry, nItems)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // stamp wraparound: invalidate everything explicitly
		clear(s.tab)
		s.epoch = 1
	}
	s.active = active
	if words := bitmapWords(nItems); cap(s.actBits) < words {
		s.actBits, s.tgtBits = make([]uint64, words), make([]uint64, words)
	} else {
		s.actBits, s.tgtBits = s.actBits[:words], s.tgtBits[:words]
		clear(s.actBits)
		clear(s.tgtBits)
	}
	// A sorted neighbour pairs each active rating, and hits each distinct
	// target item, at most once: sized here, the buffers never grow in a
	// fold.
	if cap(s.pairs) < len(active) {
		s.pairs = make([]scorePair, 0, len(active))
	}
	if cap(s.hits) < len(targets) {
		s.hits = make([]targetHit, 0, len(targets))
	}
	if cap(s.next) < len(targets) {
		s.next = make([]int32, len(targets))
	} else {
		s.next = s.next[:len(targets)]
	}
	// Both loops run backwards so the entry ends up holding the first
	// occurrence, with later duplicates chained (targets) or adjacent in
	// the sorted vector (active ratings).
	for t := len(targets) - 1; t >= 0; t-- {
		s.next[t] = -1
		item := targets[t]
		if item < 0 || int(item) >= nItems {
			continue
		}
		s.tgtBits[item>>6] |= 1 << (item & 63)
		e := &s.tab[item]
		if e.stamp == s.epoch {
			s.next[t] = e.tgt
		} else {
			e.stamp, e.act = s.epoch, -1
		}
		e.tgt = int32(t)
	}
	for i := len(active) - 1; i >= 0; i-- {
		item := active[i].Item
		if item < 0 || int(item) >= nItems {
			continue
		}
		s.actBits[item>>6] |= 1 << (item & 63)
		e := &s.tab[item]
		if e.stamp != s.epoch {
			e.stamp, e.tgt = s.epoch, -1
		}
		e.act = int32(i)
	}
}

// foldUser accumulates matrix user u into res and returns its Pearson
// weight against the active user: by its item bitmap unless its row
// repeats an item, whose k-th-duplicate rule (see fold) rank cannot
// express.
func (s *scorer) foldUser(res Result, m *Matrix, u int) float64 {
	if m.dup[u] {
		return s.fold(res, m.Ratings(u), m.Mean(u))
	}
	return s.foldBits(res, m.Ratings(u), m.itemBits(u), m.Mean(u))
}

// foldBits is fold for a neighbour whose ratings rs hold each item at
// most once, with ub its item bitmap. The words ub shares with the
// active and target bitmaps give the co-rated items and the rated
// targets, each visited in item order; the rating of an item is the one
// at its rank in the row — the ratings in earlier words plus the set
// bits below it in its own. Only the ratings that pair or hit are read,
// and no branch depends on whether a given rating does.
func (s *scorer) foldBits(res Result, rs []Rating, ub []uint64, mean float64) float64 {
	act, tgt := s.actBits, s.tgtBits
	n := min(len(ub), len(act)) // the bound and the matrix item space may differ
	tab, active := s.tab, s.active
	pairs, hits := s.pairs[:0], s.hits[:0]
	var sx, sy float64
	base := 0 // ratings in the words before w
	for w, b := range ub[:n] {
		for m := b & act[w]; m != 0; m &= m - 1 {
			y := rs[base+bits.OnesCount64(b&(m&-m-1))].Score
			x := active[tab[w<<6|bits.TrailingZeros64(m)].act].Score
			sx += x
			sy += y
			pairs = append(pairs, scorePair{x, y})
		}
		for m := b & tgt[w]; m != 0; m &= m - 1 {
			y := rs[base+bits.OnesCount64(b&(m&-m-1))].Score
			hits = append(hits, targetHit{tab[w<<6|bits.TrailingZeros64(m)].tgt, y})
		}
		base += bits.OnesCount64(b)
	}
	s.pairs, s.hits = pairs, hits
	return s.weigh(res, sx, sy, mean)
}

// fold accumulates one neighbour — ratings rs sorted by item, in the
// bound item space — into res by one stream over its ratings, and
// returns its Pearson weight against the active user (0 for fewer than
// two co-rated items, as Weight).
//
// Duplicate items follow merge-join semantics: the k-th duplicate of a
// neighbour's item pairs with the k-th duplicate of the active user's,
// and only an item's first occurrence feeds a target.
func (s *scorer) fold(res Result, rs []Rating, mean float64) float64 {
	tab, epoch, active := s.tab, s.epoch, s.active
	pairs, hits := s.pairs[:0], s.hits[:0]
	var sx, sy float64
	for j, r := range rs {
		e := &tab[r.Item]
		if e.stamp != epoch {
			continue
		}
		k := 0 // occurrences of r.Item before this one
		for k < j && rs[j-1-k].Item == r.Item {
			k++
		}
		if i := int(e.act) + k; e.act >= 0 && i < len(active) && active[i].Item == r.Item {
			x := active[i].Score
			sx += x
			sy += r.Score
			pairs = append(pairs, scorePair{x, r.Score})
		}
		if e.tgt >= 0 && k == 0 {
			hits = append(hits, targetHit{e.tgt, r.Score})
		}
	}
	s.pairs, s.hits = pairs, hits
	return s.weigh(res, sx, sy, mean)
}

// weigh computes the Pearson weight over the collected pairs, whose
// score sums are sx and sy, applies the collected hits at it and
// returns it.
func (s *scorer) weigh(res Result, sx, sy, mean float64) float64 {
	n := len(s.pairs)
	if n < 2 {
		return 0
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for _, p := range s.pairs {
		dx, dy := p.x-mx, p.y-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	w := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding noise so callers can rely on [-1,1].
	if w > 1 {
		w = 1
	} else if w < -1 {
		w = -1
	}
	if w != 0 {
		aw := math.Abs(w)
		for _, h := range s.hits {
			s.apply(res, h.slot, w*(h.score-mean), aw)
		}
	}
	return w
}

// foldAt accumulates a neighbour's target contributions at a known
// weight, sign = -1 retracting what sign = +1 added: Algorithm 1's
// replacement of an aggregated user by its members.
func (s *scorer) foldAt(res Result, w float64, rs []Rating, mean float64, sign float64) {
	if w == 0 {
		return
	}
	aw := math.Abs(w)
	prev := int32(-1)
	for _, r := range rs {
		if r.Item == prev {
			continue
		}
		prev = r.Item
		if e := s.tab[r.Item]; e.stamp == s.epoch && e.tgt >= 0 {
			s.apply(res, e.tgt, sign*w*(r.Score-mean), sign*aw)
		}
	}
}

// apply adds one (neighbour, item) contribution to every target slot
// predicting the item.
func (s *scorer) apply(res Result, slot int32, dev, dden float64) {
	for t := slot; t >= 0; t = s.next[t] {
		res.Num[t] += dev
		res.Den[t] += dden
	}
}
