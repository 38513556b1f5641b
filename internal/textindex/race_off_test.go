//go:build !race

package textindex

const raceEnabled = false
