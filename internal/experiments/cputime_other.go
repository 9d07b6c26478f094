//go:build !linux

package experiments

import "time"

var processStart = time.Now()

// processCPU falls back to the monotonic wall clock where package syscall
// offers no process CPU-time clock.
func processCPU() time.Duration { return time.Since(processStart) }
