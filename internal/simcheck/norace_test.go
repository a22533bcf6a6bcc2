//go:build !race

package simcheck

const raceEnabled = false
