//go:build race

package wire

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random, so allocation counts of pooled codec scratch mean nothing
// there.
const raceEnabled = true
