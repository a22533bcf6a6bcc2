package bench

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/workload"
)

// The fault-plan benchmarks pin the cost contract of the registry: a
// site hit with nothing armed is one map increment and one empty-map
// lookup, cheap enough to leave compiled into every disk transfer,
// allocation and datagram unconditionally. The end-to-end pair must
// stay within a few percent of each other for the same reason the
// traced/untraced pair must.

// BenchmarkFaultHitUnarmed measures the raw per-occurrence cost of
// reporting a site hit to a plan with no arms — the price every fault
// site pays on every I/O in a fault-free run.
func BenchmarkFaultHitUnarmed(b *testing.B) {
	k := kernel.New(kernel.DefaultConfig())
	fp := k.Faults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp.Hit("disk.rz58.wrerr", int64(i%600)) {
			b.Fatal("unarmed hit fired")
		}
	}
}

// BenchmarkFaultHitArmedMiss measures the same hit with an arm present
// on the site but matching a different argument — the filter path a
// quiet per-block defect arm adds to every transfer on its disk.
func BenchmarkFaultHitArmedMiss(b *testing.B) {
	k := kernel.New(kernel.DefaultConfig())
	fp := k.Faults()
	fp.Arm(kernel.FaultArm{Site: "disk.rz58.wrerr", Every: 1, Match: -2, Count: -1, Quiet: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp.Hit("disk.rz58.wrerr", int64(i%600)) {
			b.Fatal("non-matching arm fired")
		}
	}
}

// BenchmarkCopySpliceFaultSites is the end-to-end control for
// BenchmarkCopySplice: the same cold-cache 1MB copy, now that every
// disk transfer and allocation reports to the (unarmed) fault plan.
// Comparing the two pins the whole-machine overhead of always-on fault
// sites at the noise floor.
func BenchmarkCopySpliceFaultSites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MeasureThroughput(benchSetup(), workload.CopySplice)
	}
}
