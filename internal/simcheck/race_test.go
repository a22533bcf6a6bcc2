//go:build race

package simcheck

// raceEnabled is set under the race detector, which makes a seed about
// ten times slower.
const raceEnabled = true
