package machine_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"kdp/internal/bench"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
)

// checkSpec is simcheck's machine: a 64-buffer cache, 8 page frames, a
// 600-block RZ58 and a 220-block RZ56.
func checkSpec() machine.Spec {
	s := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 64}
	s.Kernel.MaxRunTime = 600 * sim.Second
	for i, p := range []disk.Params{disk.RZ58(600, machine.BlockSize), disk.RZ56(220, machine.BlockSize)} {
		s.Disks = append(s.Disks, machine.DiskSpec{Mount: "/d" + string(rune('0'+i)), Params: p, Inodes: 64})
	}
	return s
}

// metaBlocks bounds what mkfs writes on these volumes: the superblock,
// one bitmap block and one inode-table block.
const metaBlocks = 8

// useAndRelease boots m, writes a file through the cache to every
// volume (mounts[i] is where disk i is mounted), scribbles on a raw
// block of each, and releases the machine.
func useAndRelease(tb testing.TB, m *machine.Machine, mounts ...string) {
	tb.Helper()
	m.K.Spawn("use", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			tb.Errorf("boot: %v", err)
			return
		}
		junk := make([]byte, 5*machine.BlockSize)
		for i := range junk {
			junk[i] = 0xC3
		}
		for i, d := range m.Disks {
			fd, err := p.Open(mounts[i]+"/f", kernel.OCreat|kernel.ORdWr)
			if err != nil {
				tb.Errorf("create: %v", err)
				return
			}
			if _, err := p.Write(fd, junk); err != nil {
				tb.Errorf("write: %v", err)
			}
			if err := p.Fsync(fd); err != nil {
				tb.Errorf("fsync: %v", err)
			}
			_ = p.Close(fd)
			d.WriteRaw(d.DevBlocks()-1, junk[:machine.BlockSize])
		}
	})
	if err := m.K.Run(); err != nil {
		tb.Errorf("run: %v", err)
	}
	m.Release()
}

// firstNonZero returns the index of the first non-zero byte, or -1.
func firstNonZero(p []byte) int {
	for i, c := range p {
		if c != 0 {
			return i
		}
	}
	return -1
}

// TestReleasedMachineIsDead: a released machine fails its invariant
// check by name, its devices and cache refuse service, and it cannot
// be released again.
func TestReleasedMachineIsDead(t *testing.T) {
	m := machine.New(spec("ram"))
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if err := m.CheckInvariants(); kernel.ViolationName(err) != "buf-released" {
		t.Errorf("CheckInvariants on a released machine = %v, want buf-released", err)
	}
	for _, use := range []struct {
		name, want string
		fn         func()
	}{
		{"ReadRaw", "disk: ram: used after Release", func() { m.Disks[0].ReadRaw(0, make([]byte, 8)) }},
		{"Getblk", "released cache", func() { m.Cache.Getblk(m.K.IntrCtx(), m.Disks[0], 0) }},
		{"Release", "after Release", m.Release},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, use.want) {
					t.Errorf("%s on a released machine: recovered %q, want %q", use.name, r, use.want)
				}
			}()
			use.fn()
		}()
	}
	// With no disk to refuse first, the cache refuses the second Release.
	bare := machine.New(spec())
	bare.Release()
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "released twice") {
				t.Errorf("second Release of a diskless machine: recovered %q", r)
			}
		}()
		bare.Release()
	}()
}

// TestRebuiltMachineAllocatesNoVolumeMemory is the budget gate for the
// "block" and "typed table" rows of docs/ARCHITECTURE.md "Who owns which
// memory": once one machine of a geometry has been built, used and
// released, building and releasing the next allocates neither block
// memory nor its tables — platters' references, the cache's headers and
// hash, the filesystems' claims all rest — under 12 KB in all for
// simcheck's geometry and for the paper's RAM-disk machine: 4 KB
// measured for each, the kernel's and the disks' own records, under
// -race too, and 9 KB in about one run of 200; 32 KB and 96 KB while
// the tables came from the Go heap, where simcheck's 64 buffer headers
// alone are 11 KB. Every block that rests is all zero.
func TestRebuiltMachineAllocatesNoVolumeMemory(t *testing.T) {
	for _, geom := range []struct {
		name     string
		budgetKB uint64
		build    func() *machine.Machine
		mounts   []string
	}{
		{"simcheck", 12, func() *machine.Machine { return machine.New(checkSpec()) }, []string{"/d0", "/d1"}},
		{"bench RAM", 12, func() *machine.Machine { return bench.NewMachine(bench.DefaultSetup(bench.RAM)).Machine }, []string{"/src", "/dst"}},
	} {
		sim.TakeBlocks()
		useAndRelease(t, geom.build(), geom.mounts...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		geom.build().Release()
		runtime.ReadMemStats(&after)
		kb := (after.TotalAlloc - before.TotalAlloc) >> 10
		t.Logf("%s: New + Release after a warm-up allocated %d KB", geom.name, kb)
		if kb >= geom.budgetKB {
			t.Errorf("%s: New + Release after a warm-up allocated %d KB, want < %d", geom.name, kb, geom.budgetKB)
		}
		for _, b := range sim.TakeBlocks() {
			if i := firstNonZero(b.Bytes); i >= 0 {
				t.Errorf("%s: a resting %d-byte block has byte %#x at %d", geom.name, len(b.Bytes), b.Bytes[i], i)
			}
		}
	}
}

// TestRecyclerConcurrent: four goroutines build, dirty and release
// machines of two sizes at once (run under -race in `make ci`). Every
// platter built on recycled blocks reads zero past mkfs's metadata, and
// what rests — sampled by one of them mid-run, and at the end — is all
// zero and within the recycler's bound.
func TestRecyclerConcurrent(t *testing.T) {
	sim.TakeBlocks()
	small := spec("a", "b")
	large := checkSpec()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			block := make([]byte, machine.BlockSize)
			for round := 0; round < 6; round++ {
				m := machine.New([]machine.Spec{small, large}[(g+round)%2])
				for _, d := range m.Disks {
					for blk := int64(metaBlocks); blk < d.DevBlocks(); blk++ {
						d.ReadRaw(blk, block)
						if i := firstNonZero(block); i >= 0 {
							t.Errorf("goroutine %d round %d: %s drawn with byte %#x in block %d", g, round, d.DevName(), block[i], blk)
							return
						}
					}
					d.WriteRaw(int64(metaBlocks+g+round), []byte{0xEE})
				}
				useAndRelease(t, m, "/d0", "/d1")
				if g == 0 {
					// What rests right now, scanned and rested again (the
					// other three build cold meanwhile).
					n := 0
					for _, b := range sim.TakeBlocks() {
						if i := firstNonZero(b.Bytes); i >= 0 {
							t.Errorf("round %d: a resting %d-byte block has byte %#x at %d", round, len(b.Bytes), b.Bytes[i], i)
						}
						n += len(b.Bytes)
						b.Rest()
					}
					if n > sim.RestBound {
						t.Errorf("%d bytes rested in the recycler, bound %d", n, sim.RestBound)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	blocks := sim.TakeBlocks()
	if len(blocks) == 0 {
		t.Fatal("nothing rests after 24 releases")
	}
	for _, b := range blocks {
		if i := firstNonZero(b.Bytes); i >= 0 {
			t.Errorf("a resting %d-byte block has byte %#x at %d", len(b.Bytes), b.Bytes[i], i)
		}
	}
}

// BenchmarkBuildRelease is what it costs to stamp out simcheck's
// machine: cold, with the recycler emptied first, New allocates every
// block mkfs writes; warm, New draws what the last Release rested.
func BenchmarkBuildRelease(b *testing.B) {
	s := checkSpec()
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !warm {
					sim.TakeBlocks()
				}
				machine.New(s).Release()
			}
		})
	}
}
