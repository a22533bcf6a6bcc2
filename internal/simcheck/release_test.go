package simcheck

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// restingDirt takes every block resting in the recycler, scans every
// byte, and rests the blocks again so the next machine still draws
// them. It returns a description of the first non-zero byte, or "".
func restingDirt() string {
	blocks := sim.TakeBlocks()
	defer func() {
		for _, b := range blocks {
			b.Rest()
		}
	}()
	for _, b := range blocks {
		// All zero iff the first byte is and every byte equals the one
		// before it: one memequal, where a byte loop under -race is slow.
		s := b.Bytes
		if len(s) == 0 || s[0] == 0 && bytes.Equal(s[1:], s[:len(s)-1]) {
			continue
		}
		for i, c := range s {
			if c != 0 {
				return fmt.Sprintf("byte %#x at offset %d of a resting %d-byte block", c, i, len(s))
			}
		}
	}
	return ""
}

// TestReleaseLeavesMemoryZero gives the re-zeroing teeth: after every
// run — standard, crashed and recovered, or cut short by an armed disk
// fault — every block execute's Release let go of is scanned byte by
// byte, and rested again, so each machine but the first is built on
// blocks an earlier one wrote. A block rests only when its last platter
// entry or buffer lets go, so a clean scan means no live reference was
// dropped early. The last step shows the scan sees what it is for: one
// stray byte in a resting block fails it.
func TestReleaseLeavesMemoryZero(t *testing.T) {
	sim.TakeBlocks()
	defer sim.TakeBlocks()
	var cfgs []Config
	for seed := uint64(1); seed <= 20; seed++ {
		cfgs = append(cfgs, Config{Seed: seed})
	}
	for seed := uint64(1); seed <= 10; seed++ {
		cfgs = append(cfgs, Config{Seed: seed, Crash: true})
	}
	census := Run(Config{Seed: 3, Workers: 1}).Census
	for _, site := range []kernel.FaultSite{"disk.rz58.wrerr", "disk.rz56.rderr"} {
		var n int64
		for _, sc := range census {
			if sc.Site == site {
				n = sc.N
			}
		}
		if n < 2 {
			t.Fatalf("seed 3 reaches %s %d time(s); pick another seed", site, n)
		}
		for _, k := range []int64{1, (n + 1) / 2} {
			cfgs = append(cfgs, Config{Seed: 3, FaultSite: site, FaultK: k})
		}
	}
	for _, cfg := range cfgs {
		r := Run(cfg)
		if r.Failed() {
			t.Fatalf("%+v: %v", cfg, r.Violation)
		}
		if cfg.FaultSite != "" && r.FaultFired != 1 {
			t.Fatalf("%+v: armed fault fired %d times", cfg, r.FaultFired)
		}
		if dirt := restingDirt(); dirt != "" {
			t.Fatalf("after %+v: %s", cfg, dirt)
		}
	}
	blocks := sim.TakeBlocks()
	if len(blocks) == 0 {
		t.Fatal("no block rests after the sweep")
	}
	for _, b := range blocks {
		b.Rest()
	}
	blocks[0].Bytes[len(blocks[0].Bytes)-1] = 0x7F
	want := fmt.Sprintf("byte 0x7f at offset %d of a resting %d-byte block", len(blocks[0].Bytes)-1, len(blocks[0].Bytes))
	if dirt := restingDirt(); dirt != want {
		t.Errorf("the scan missed a stray byte at the end of a resting block: %q", dirt)
	}
}

// TestRecycleOrderIndependent: which memory a machine is built on
// cannot show in what it computes. Seeds 1–12 run in ascending order,
// in descending order, and each right after a crash run of another seed
// (whose blocks it then inherits, re-zeroed)
// must give the same digest and CPU accounting every time — and, for
// the seeds the corpus pins, the digest committed in digests.golden.
func TestRecycleOrderIndependent(t *testing.T) {
	sim.TakeBlocks()
	defer sim.TakeBlocks()
	const n = 12
	type outcome struct {
		digest uint64
		stats  kernel.CPUStats
	}
	run := func(seed uint64) outcome {
		r := Run(Config{Seed: seed})
		if r.Failed() {
			t.Fatalf("seed %d: %v", seed, r.Violation)
		}
		return outcome{r.Digest, r.Stats}
	}
	var want [n + 1]outcome
	for seed := uint64(1); seed <= n; seed++ {
		want[seed] = run(seed)
	}
	golden, err := os.ReadFile("testdata/digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for _, line := range strings.Split(string(golden), "\n") {
		var seed, digest uint64
		if _, err := fmt.Sscanf(line, "standard seed %d digest %x", &seed, &digest); err == nil && seed <= n {
			pinned++
			if want[seed].digest != digest {
				t.Errorf("seed %d on recycled memory: digest %016x, golden %016x", seed, want[seed].digest, digest)
			}
		}
	}
	if pinned == 0 {
		t.Error("digests.golden pins none of these seeds")
	}
	for seed := uint64(n); seed >= 1; seed-- {
		if got := run(seed); got != want[seed] {
			t.Errorf("seed %d, descending order: %+v, ascending gave %+v", seed, got, want[seed])
		}
	}
	for seed := uint64(1); seed <= n; seed++ {
		if r := Run(Config{Seed: seed%n + 1, Crash: true}); r.Failed() {
			t.Fatalf("crash seed %d: %v", seed%n+1, r.Violation)
		}
		if got := run(seed); got != want[seed] {
			t.Errorf("seed %d after a crash run of seed %d: %+v, ascending gave %+v", seed, seed%n+1, got, want[seed])
		}
	}
}
