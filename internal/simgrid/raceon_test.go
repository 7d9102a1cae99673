//go:build race

package simgrid

// Allocation bounds are skipped under the race detector, as in the
// module's other packages.
func init() { raceEnabled = true }
