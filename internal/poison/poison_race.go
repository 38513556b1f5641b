//go:build race

package poison

import "math"

// Released panics, naming what, if a record being released already was.
func Released(already bool, what string) {
	if already {
		panic(what + " released twice")
	}
}

// Fill sets every element of a, to its capacity, to v.
func Fill[T any](a []T, v T) {
	a = a[:cap(a)]
	for i := range a {
		a[i] = v
	}
}

// NaN fills every array, to its capacity, with NaN.
func NaN(arrays ...[]float64) {
	for _, a := range arrays {
		Fill(a, math.NaN())
	}
}
