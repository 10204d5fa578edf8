//go:build !unix

package bench

import "time"

// processCPU reports no process CPU clock on this platform; callers
// fall back to wall time.
func processCPU() time.Duration { return 0 }
