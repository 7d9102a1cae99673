//go:build race

package schedd

// The race detector makes sync.Pool drop items at random and adds its
// own allocations, so allocation counts mean nothing under it.
func init() { raceEnabled = true }
