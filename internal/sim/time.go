// Package sim provides the deterministic discrete-event simulation core
// that every other subsystem runs on: a virtual clock, an event queue
// with stable ordering, and a seeded pseudo-random number generator.
//
// Nothing in this package knows about kernels, disks, or processes; it
// only advances virtual time and dispatches callbacks. Determinism is a
// hard requirement for the reproduction: two runs with the same
// configuration must produce bit-identical event sequences.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from boot.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)/float64(Second)) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// BytesAt returns the time to move n bytes at the given rate in bytes
// per second.
func BytesAt(n int64, bytesPerSecond float64) Duration {
	if bytesPerSecond <= 0 {
		return 0
	}
	return Duration(float64(n) * float64(Second) / bytesPerSecond)
}
