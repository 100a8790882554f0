//go:build race

package rtec

// The race detector's runtime allocates on its own and makes sync.Pool drop
// items at random, so an exact allocation count does not hold under it.
func init() { raceDetector = true }
