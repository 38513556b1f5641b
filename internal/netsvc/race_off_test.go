//go:build !race

package netsvc

const raceEnabled = false
