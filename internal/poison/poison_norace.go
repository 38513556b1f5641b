//go:build !race

package poison

func Released(bool, string)   {}
func Fill[T any]([]T, T)      {}
func NaN(arrays ...[]float64) {}
