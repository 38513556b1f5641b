package agg_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/core"
	"accuracytrader/internal/experiments"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/wire"
)

// coverageNominal is the confidence the agg bounds claim (z = 1.96).
const coverageNominal = 0.95

// coverageHalfCeiling bounds the other side: at half its width a 95%
// normal bound covers about 68%, so a bound that still covers 90% of
// the pairs where it is open is about twice as wide as the error it
// sizes (the pseudo-count floors measure 0.75–0.85 here).
const coverageHalfCeiling = 0.90

// coverageQueries is the query sample per scale.
const coverageQueries = 200

// TestBoundsCoverAtNominalRate is the coverage net under the agg
// engine's 95% bounds. Over 200 queries on each fixture scale's shards
// (the experiments' quick and default agg services), the merged
// answer's bound must cover the exact merged answer for at least 95% of
// (query, group key) pairs, separately for SUM, COUNT and AVG, in each
// of three settings at every ladder level:
//
//   - "synopsis": every shard answers from its sample alone;
//   - "+improve": every shard runs Algorithm 1 through core.Run with
//     imax = 10% of its strata, so the strata left approximate are the
//     ones whose bounds the ranking judged narrow;
//   - "m-of-n": one shard of n is missing (a different one per query)
//     and the synopsis answer of the other m = n−1 is extrapolated by
//     netsvc.ExtrapolateAgg — sums ×(n/m), variances ×(n/m)² — against
//     the exact answer of the same m shards extrapolated alike: the
//     sampling error the bound sizes, scaled to the full population.
//
// A bound that covers by being uselessly wide fails too: over the
// pairs whose bound is not zero, half the bound must cover under 90%.
// Beside coverage it logs the median relative bound width of SUM and
// COUNT (bound / |exact| over keys with a non-zero exact answer) and,
// for the m-of-n answer, the coverage of the exact answer over all n
// shards.
// That one is reported, not asserted: the bounds size only the sampling
// error of the shards that answered, not what the missing shard would
// have added.
func TestBoundsCoverAtNominalRate(t *testing.T) {
	if testing.Short() {
		t.Skip("200 queries at two scales")
	}
	for _, sc := range []experiments.Scale{experiments.QuickScale(), experiments.DefaultScale()} {
		svc, err := experiments.BuildAggService(sc)
		if err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, fmt.Sprintf("%d shards × %d rows", len(svc.Comps), sc.FactRowsPerSubset),
			svc.Comps, svc.Data.SampleAggQueries(sc.Seed^0xa0d1, coverageQueries))
	}
}

// coverageTally counts covered (query, key) pairs per op and keeps the
// relative widths of SUM and COUNT bounds.
type coverageTally struct {
	in, total [3]int
	widths    []float64
	// Over the pairs whose bound is not zero: the count, and how many of
	// them half the bound covers.
	open, inHalf int
}

func (c *coverageTally) add(q agg.Query, approx, exact agg.Result) {
	for k := range exact.Sum {
		est, want, bound := approx.Estimate(q.Op, k), exact.Estimate(q.Op, k), approx.Bound(q.Op, k)
		c.total[q.Op]++
		if math.Abs(est-want) <= bound {
			c.in[q.Op]++
		}
		if bound > 0 {
			c.open++
			if math.Abs(est-want) <= bound/2 {
				c.inHalf++
			}
		}
		if q.Op != agg.Avg && want != 0 {
			c.widths = append(c.widths, bound/math.Abs(want))
		}
	}
}

func checkCoverage(t *testing.T, fixture string, comps []*agg.Component, queries []agg.Query) {
	t.Helper()
	nKeys, n := comps[0].T.NumKeys(), len(comps)
	exact, part := agg.NewResult(nKeys), agg.NewResult(nKeys)
	imax := max(1, comps[0].Syn.NumStrata()/10)
	for level := 0; level < comps[0].Syn.Levels(); level++ {
		tallies := map[string]*coverageTally{"synopsis": {}, "+improve": {}, "m-of-n": {}, "m-of-n vs all n": {}}
		for qi, q := range queries {
			exact = exact.Reset(nKeys)
			syn, improved := agg.NewResult(nKeys), agg.NewResult(nKeys)
			partial, partialExact := newWireAgg(nKeys), newWireAgg(nKeys)
			for ci, c := range comps {
				ex := agg.ExactResult(c, q)
				exact.Merge(ex)
				e := agg.GetEngine(c, q, level)
				e.ProcessSynopsis()
				syn.Merge(e.Result())
				if ci != qi%n {
					netsvc.AggResultOf(partial).Merge(e.Result())
					netsvc.AggResultOf(partialExact).Merge(ex)
				}
				e.Release()

				e = agg.GetEngine(c, q, level)
				core.Run(e, core.BudgetContinue(imax), imax)
				part = part.Reset(nKeys)
				part.Merge(e.Result())
				improved.Merge(part)
				e.Release()
			}
			netsvc.ExtrapolateAgg(partial, n-1, n)
			netsvc.ExtrapolateAgg(partialExact, n-1, n)
			tallies["synopsis"].add(q, syn, exact)
			tallies["+improve"].add(q, improved, exact)
			tallies["m-of-n"].add(q, netsvc.AggResultOf(partial), netsvc.AggResultOf(partialExact))
			tallies["m-of-n vs all n"].add(q, netsvc.AggResultOf(partial), exact)
		}
		for _, mode := range []string{"synopsis", "+improve", "m-of-n", "m-of-n vs all n"} {
			c := tallies[mode]
			slices.Sort(c.widths)
			cov := [3]float64{}
			for op := range cov {
				cov[op] = float64(c.in[op]) / float64(c.total[op])
			}
			half := float64(c.inHalf) / float64(c.open)
			t.Logf("%s level %d %-15s coverage SUM %.3f COUNT %.3f AVG %.3f over %d/%d/%d pairs, median relative width %.3f; half-bound coverage %.3f over %d open pairs",
				fixture, level, mode, cov[agg.Sum], cov[agg.Count], cov[agg.Avg],
				c.total[agg.Sum], c.total[agg.Count], c.total[agg.Avg], c.widths[len(c.widths)/2], half, c.open)
			if mode == "m-of-n vs all n" {
				continue
			}
			if half >= coverageHalfCeiling {
				t.Errorf("%s level %d %s: half the bound covers %.3f of %d open pairs, want < %.2f: the bound is too wide",
					fixture, level, mode, half, c.open, coverageHalfCeiling)
			}
			for op, v := range cov {
				if c.total[op] < 200 {
					t.Errorf("%s level %d %s: only %d %v pairs", fixture, level, mode, c.total[op], agg.Op(op))
				}
				if v < coverageNominal {
					t.Errorf("%s level %d %s: %v bounds cover %.3f of exact answers, want >= %.2f",
						fixture, level, mode, agg.Op(op), v, coverageNominal)
				}
			}
		}
	}
}

// newWireAgg is a zeroed wire aggregation answer over n keys.
func newWireAgg(n int) *wire.AggResult {
	r := agg.NewResult(n)
	return &wire.AggResult{Sum: r.Sum, Cnt: r.Cnt, SumVar: r.SumVar, CntVar: r.CntVar}
}
