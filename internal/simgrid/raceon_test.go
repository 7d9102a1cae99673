//go:build race

package simgrid

// The race detector makes sync.Pool drop items at random, so weatherPool
// cannot be counted on to hand a weather back and allocation bounds
// mean nothing under it.
func init() { raceEnabled = true }
