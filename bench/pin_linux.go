package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts the whole process to a single CPU. On a small
// shared VM the hypervisor's cross-CPU wake-ups are the largest source
// of run-to-run noise (search-fanout's rtt_p50_us spread: 12% over two
// CPUs, 2% on one); with every goroutine on one CPU a request's time
// is the program's own work, in order. Affinity is per thread and the
// runtime has already started several, so the calling thread pins
// itself and re-executes the binary: the new image starts from that
// one thread and every later thread inherits its mask. A process
// already confined to one CPU (the re-executed one, or one started
// under taskset) returns at once.
func pinToOneCPU() error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	allowed, last := 0, -1
	for w, word := range mask {
		allowed += bits.OnesCount64(word)
		if word != 0 {
			last = w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	if allowed <= 1 {
		runtime.UnlockOSThread()
		return nil
	}
	// The highest allowed CPU: CPU 0 usually takes the device interrupts.
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
