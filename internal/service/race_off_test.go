//go:build !race

package service_test

const raceEnabled = false
