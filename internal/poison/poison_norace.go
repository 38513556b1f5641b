//go:build !race

package poison

const Enabled = false

func Released(bool, string)   {}
func Fill[T any]([]T, T)      {}
func NaN(arrays ...[]float64) {}
