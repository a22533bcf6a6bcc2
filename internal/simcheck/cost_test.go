package simcheck

import (
	"runtime"
	"strconv"
	"testing"
)

// seedBudgetKB bounds what a warm run of seed 1 allocates, under the
// race detector's build too: its 158 KB there and 42 KB of headroom,
// below the 211 KB the run allocated before its tables rested.
const seedBudgetKB = 200

// TestSeedAllocationBudget is the budget gate for docs/CHECKING.md
// "What a seed costs": an op writes from and reads into its worker's
// I/O buffers (ioBuf), and the oracle's images copy only the blocks a
// store touches; both are sim.Blocks, drawn from the recycler the last
// run gave them back to, as are the machine's tables (the cache's
// headers and hash, the filesystems' claims, the nets' records) and
// the blocks a splice source hands over. Seed 1 allocates 114 KB so
// (x86-64, Go 1.24; 158 KB under -race). It allocated 211 KB while the
// tables came from the Go heap and a take from a pipe made a slice,
// 834 KB (878 KB) while the images and buffers came from the Go heap,
// 1 665 KB (2 437 KB) while the images were flat copies, and 2 548 KB
// (3 311 KB) when every op allocated its own buffers too.
func TestSeedAllocationBudget(t *testing.T) {
	// The first run rests its machine's platters and buffer slab for the
	// second, as every run but the first in a sweep finds them.
	var before, after runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&before)
		if r := Run(Config{Seed: 1}); r.Failed() {
			t.Fatal(r.Violation)
		}
		runtime.ReadMemStats(&after)
	}
	kb := (after.TotalAlloc - before.TotalAlloc) >> 10
	t.Logf("seed 1 allocated %d KB", kb)
	if kb >= seedBudgetKB {
		t.Errorf("seed 1 allocated %d KB, want < %d", kb, seedBudgetKB)
	}
}

// BenchmarkSeed is what one standard seed of the default 60 ops costs
// the host, per seed 1–8: wall time, bytes and allocations, the machine's
// build and release included.
func BenchmarkSeed(b *testing.B) {
	for seed := uint64(1); seed <= 8; seed++ {
		b.Run(strconv.FormatUint(seed, 10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := Run(Config{Seed: seed}); r.Failed() {
					b.Fatal(r.Violation)
				}
			}
		})
	}
}
