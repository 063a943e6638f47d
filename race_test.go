//go:build race

package distal_test

// raceEnabled reports a -race build. Under the race detector sync.Pool drops
// items at random, so allocation counts of code that pools its scratch (the
// leaf kernels) mean nothing there.
const raceEnabled = true
