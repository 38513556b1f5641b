package main

import (
	"math"
	"sort"
	"time"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// minBeyond is the number of samples that must lie beyond a quantile
// for it to be reported: with fewer, the value is set by a handful of
// outliers and does not repeat run to run.
const minBeyond = 10

// quantile returns the q-quantile (nearest rank) of an ascending
// slice. ok is false when fewer than minBeyond samples lie beyond the
// quantile on its thin side; the value is then taken at the most
// extreme quantile that does have minBeyond samples beyond it, so
// callers still get a finite number to print next to the refusal.
func quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	beyond := n - 1 - idx // samples above
	if q < 0.5 {
		beyond = idx // samples below
	} else if q == 0.5 && idx < beyond {
		beyond = idx
	}
	if beyond >= minBeyond {
		return sorted[idx], true
	}
	// Clamp towards the centre until minBeyond samples lie beyond.
	switch {
	case n <= 2*minBeyond:
		idx = n / 2
	case q >= 0.5:
		idx = n - 1 - minBeyond
	default:
		idx = minBeyond
	}
	return sorted[idx], false
}

// quantileOf sorts a copy of vals and returns its q-quantile.
func quantileOf(vals []float64, q float64) (float64, bool) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, q)
}

// median returns the middle value of vals (mean of the two middle
// values for an even count), without the sample-count refusal: it is
// used over the ten per-segment values, where each value is already a
// robust statistic.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOverSegments takes the q-quantile of every segment that has
// samples and returns the median of the results. ok is false when any
// segment refused its quantile.
func medianOverSegments(segments [][]float64, q float64) (float64, bool) {
	per := make([]float64, 0, len(segments))
	ok := true
	for _, seg := range segments {
		if len(seg) == 0 {
			continue
		}
		v, segOK := quantileOf(seg, q)
		per = append(per, v)
		ok = ok && segOK
	}
	return median(per), ok && len(per) > 0
}

// poissonSchedule returns n arrival offsets of a Poisson process at
// ratePerSec, as a pure function of the seed: the open-loop workload's
// intended send times.
func poissonSchedule(seed uint64, n int, ratePerSec float64) []time.Duration {
	rng := stats.NewRNG(seed ^ 0x5ced01e)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.Exp(ratePerSec)
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// opKind is what one generated operation does.
type opKind uint8

const (
	opRead    opKind = iota // one query through Client.Call
	opIngest                // one append batch through Client.Ingest
	opPublish               // harness publishes every shard's staged delta
	opCompact               // harness compacts every shard
)

// SLO class of a read op: the wire's class bytes.
const (
	classExact      = wire.SLOExact
	classBounded    = wire.SLOBounded
	classBestEffort = wire.SLOBestEffort
)

// op is one generated operation. query indexes the workload's query
// pool (reads) or counts the batch (ingests).
type op struct {
	kind  opKind
	class uint8
	query int32
}

// opMix fixes, by op index alone, which ops are writes: the counts of
// every kind are therefore the same for every seed. A zero period
// disables that kind.
type opMix struct {
	ingestEvery  int  // every Nth op is an append batch
	publishEvery int  // every Nth op publishes staged deltas
	compactEvery int  // every Nth op compacts
	exactOnly    bool // every read is Exact class, not the 10/30/60 mix
}

// classOf is the deterministic class mix of the r-th read: 10% Exact,
// 30% Bounded, 60% BestEffort.
func classOf(r int) uint8 {
	switch r % 10 {
	case 0:
		return classExact
	case 1, 2, 3:
		return classBounded
	default:
		return classBestEffort
	}
}

// opSequence generates n ops over a pool of nQueries distinct queries,
// Zipf-drawn with exponent zipfS (uniformly when zipfS is 0). The op
// kind and the read's class depend only on the index; the query draw
// depends only on the seed.
func opSequence(seed uint64, n, nQueries int, zipfS float64, mix opMix) []op {
	rng := stats.NewRNG(seed ^ 0x0b5e9)
	draw := func() int { return rng.Intn(nQueries) }
	if zipfS > 0 {
		draw = stats.NewZipf(rng, nQueries, zipfS).Draw
	}
	// A seeded permutation decouples popularity rank from pool order,
	// so the hot queries differ between seeds.
	perm := stats.NewRNG(seed ^ 0x9e37).Perm(nQueries)
	out := make([]op, n)
	reads, ingests := 0, 0
	for i := range out {
		k := i + 1
		switch {
		case mix.compactEvery > 0 && k%mix.compactEvery == 0:
			out[i] = op{kind: opCompact}
		case mix.publishEvery > 0 && k%mix.publishEvery == 0:
			out[i] = op{kind: opPublish}
		case mix.ingestEvery > 0 && k%mix.ingestEvery == 0:
			out[i] = op{kind: opIngest, query: int32(ingests)}
			ingests++
		default:
			class := classOf(reads)
			if mix.exactOnly {
				class = classExact
			}
			out[i] = op{kind: opRead, class: class, query: int32(perm[draw()])}
			reads++
		}
	}
	return out
}
