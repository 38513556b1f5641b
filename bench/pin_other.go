//go:build !linux

package main

// pinToOneCPU is a no-op where the scheduler affinity calls are not
// available; GOMAXPROCS still confines goroutines to one thread.
func pinToOneCPU() error { return nil }
