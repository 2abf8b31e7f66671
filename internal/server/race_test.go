//go:build race

package server

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true
