package simcheck

import (
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// TestMinimizeKeepsItsInvariant: shrinking a failing run may not trade
// the violation that was reported for another one. For every cache
// damage kind the minimal run trips the invariant the full run tripped.
// The two-stage kind is the one that tells: planted after op 0 of seed 3
// (which dirties nothing) it trips buf-ra-pending, and a minimizer that
// keeps any failure ends on a single write tripping buf-flag-delwri.
func TestMinimizeKeepsItsInvariant(t *testing.T) {
	for _, kind := range buf.DamageKinds() {
		for _, after := range []int{1, 5} {
			cfg := Config{Seed: 3, Damage: kind, DamageAfter: after}
			full := Run(cfg)
			want := kernel.ViolationName(full.Violation)
			if want == "" {
				t.Fatalf("%s after %d: full run = %v, want a named violation", kind, after, full.Violation)
			}
			min, idx := Minimize(cfg)
			if got := kernel.ViolationName(min.Violation); got != want {
				t.Errorf("%s after %d: minimised to %v tripping %s, the full run tripped %s", kind, after, idx, got, want)
			}
		}
	}
}
