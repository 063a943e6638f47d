//go:build !race

package distal_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
