//go:build !race

package cf

const raceEnabled = false
