//go:build !unix

package obs

import "time"

// cpuTime is unavailable without getrusage; root spans report zero CPU.
func cpuTime() time.Duration { return 0 }
