//go:build !race

package client

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
