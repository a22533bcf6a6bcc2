package simcheck

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// restingDirt scans every byte of every block resting in the
// recycler, which stays there, and returns a description of the first
// non-zero byte, or "".
func restingDirt() string {
	blocks, _ := sim.Resting()
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

// restingTableDirt scans every table resting in the recycler, which
// stays there, element by element, and returns a description of the
// first element that is not its type's zero value, or "".
func restingTableDirt() string {
	_, tables := sim.Resting()
	for _, t := range tables {
		v := reflect.ValueOf(t)
		for i := range v.Len() {
			if !v.Index(i).IsZero() {
				return fmt.Sprintf("entry %d of a resting %d-entry %T is not zero", i, v.Len(), t)
			}
		}
	}
	return ""
}

// TestReleaseLeavesMemoryZero gives the re-zeroing teeth: after every
// run — standard, crashed and recovered, or cut short by an armed disk
// fault — every block execute's Release let go of is scanned byte by
// byte, and rested again, so each machine but the first is built on
// blocks an earlier one wrote; and every typed table that rests (the
// platters' references, the cache's headers and hash, the filesystems'
// claims, the nets' records and queues, the snapshot's counters) is
// scanned element by element. A block rests only when its last platter
// entry or buffer lets go, so a clean scan means no live reference was
// dropped early. The last steps show the scans see what they are for:
// one stray byte in a resting block fails the first, one stray entry
// in a resting table the second.
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
		if dirt := restingTableDirt(); dirt != "" {
			t.Fatalf("after %+v: %s", cfg, dirt)
		}
	}
	_, tables := sim.Resting()
	kinds := map[string]bool{}
	for _, tbl := range tables {
		kinds[fmt.Sprintf("%T", tbl)] = true
	}
	for _, want := range []string{"[]*sim.Block", "[]buf.Buf", "[]*buf.Buf", "[]fs.claim", "[]socket.Packet", "[]sim.Span", "[]*socket.Packet", "[]trace.Counter"} {
		if !kinds[want] {
			t.Errorf("no %s table rests after the sweep", want)
		}
	}
	for _, tbl := range tables {
		if refs, ok := tbl.([]*sim.Block); ok {
			refs[len(refs)-1] = &sim.Block{}
			want := fmt.Sprintf("entry %d of a resting %d-entry []*sim.Block is not zero", len(refs)-1, len(refs))
			if dirt := restingTableDirt(); dirt != want {
				t.Errorf("the scan missed a stray entry at the end of a resting table: %q", dirt)
			}
			refs[len(refs)-1] = nil
			break
		}
	}
	blocks, _ := sim.Resting()
	if len(blocks) == 0 {
		t.Fatal("no block rests after the sweep")
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
