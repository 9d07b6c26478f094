package experiments

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time the whole process has used
// (CLOCK_PROCESS_CPUTIME_ID): the program and the garbage collector, at
// the scheduler's exact accounting, without the time a shared host
// withheld. getrusage's tick-sampled split is too coarse for runs of a
// few milliseconds.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno)) // a constant clock id: only a bug gets here
	}
	return time.Duration(ts.Nano())
}
