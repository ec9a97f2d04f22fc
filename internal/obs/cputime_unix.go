//go:build unix

package obs

import (
	"syscall"
	"time"
)

// cpuTime returns the process's cumulative CPU time (user + system).
// Root spans subtract two readings, attributing whole-process CPU to the
// request's window: exact for a serial run and an upper bound when other
// goroutines run concurrently.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
