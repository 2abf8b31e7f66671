//go:build !race

package core

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
