package accuracytrader_test

import (
	"fmt"

	at "accuracytrader"
)

// factTable builds a small skewed fact table: a hot group key with
// mixed values, a mid-sized key, and a rare key — the shape stratified
// sampling is designed for.
func factTable() *at.FactTable {
	t := at.NewFactTable(3)
	for i := 0; i < 60; i++ {
		v := 2.0
		if i%2 == 0 {
			v = 10.0
		}
		t.Append(0, v) // hot key, bimodal values
	}
	for i := 0; i < 20; i++ {
		t.Append(1, 5.0)
	}
	for i := 0; i < 4; i++ {
		t.Append(2, 7.0) // rare key: fully covered by the sample floor
	}
	return t
}

// ExampleBuildAggComponent builds the aggregation application's offline
// synopsis: one stratum per group key and a ladder of nested stratified
// samples, coarse to fine.
func ExampleBuildAggComponent() {
	comp, err := at.BuildAggComponent(factTable(), at.AggConfig{
		Rates:     []float64{0.1, 0.5},
		MinSample: 4,
		Seed:      7,
	})
	if err != nil {
		panic(err)
	}
	syn := comp.Syn
	fmt.Println("rows:", comp.T.NumRows())
	fmt.Println("strata:", syn.NumStrata())
	fmt.Println("ladder levels:", syn.Levels())
	for l := 0; l < syn.Levels(); l++ {
		fmt.Printf("level %d: rate %.1f, sampled rows %d\n", l, syn.Rates()[l], syn.SampleUnits(l))
	}
	// Output:
	// rows: 84
	// strata: 3
	// ladder levels: 2
	// level 0: rate 0.1, sampled rows 14
	// level 1: rate 0.5, sampled rows 44
}

// ExampleGetAggEngine answers SUM(value) GROUP BY key for values in
// [5, 100) through Algorithm 1: the synopsis gives a fast estimate with
// a CLT error bound per group; improving with every ranked stratum
// reaches the exact answer and collapses the bounds to zero.
func ExampleGetAggEngine() {
	comp, err := at.BuildAggComponent(factTable(), at.AggConfig{
		Rates:     []float64{0.1, 0.5},
		MinSample: 4,
		Seed:      7,
	})
	if err != nil {
		panic(err)
	}
	q := at.AggQuery{Op: at.AggSum, Lo: 5, Hi: 100}
	e := at.GetAggEngine(comp, q, 0) // coarsest ladder level
	defer e.Release()

	corr := e.ProcessSynopsis() // Algorithm 1 line 1
	res := e.Result()
	exact := at.ExactAggResult(comp, q)
	fmt.Printf("synopsis estimate key 0: %.0f +- %.0f (exact %.0f)\n",
		res.Estimate(at.AggSum, 0), res.Bound(at.AggSum, 0), exact.Estimate(at.AggSum, 0))
	fmt.Printf("accuracy: %.3f\n", at.AggAccuracy(res.Estimates(at.AggSum), exact.Estimates(at.AggSum)))

	// Improve with every stratum, most uncertain first (lines 2-8).
	for _, g := range at.Rank(corr) {
		e.ProcessSet(g)
	}
	fmt.Printf("after improvement key 0: %.0f +- %.0f\n",
		res.Estimate(at.AggSum, 0), res.Bound(at.AggSum, 0))
	fmt.Printf("accuracy: %.3f\n", at.AggAccuracy(res.Estimates(at.AggSum), exact.Estimates(at.AggSum)))
	// Output:
	// synopsis estimate key 0: 120 +- 225 (exact 300)
	// accuracy: 0.800
	// after improvement key 0: 300 +- 0
	// accuracy: 1.000
}
