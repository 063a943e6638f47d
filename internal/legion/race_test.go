//go:build race

package legion_test

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random, so any walk may start without pooled scratch.
const raceEnabled = true
