package workload

import (
	"fmt"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// rig is a machine with two 8MB disks of one model, mounted at /a and
// /b, and a 400-buffer cache (so a 50-page pool).
type rig struct{ *machine.Machine }

func newRig(t testing.TB, mk func(int64, int) disk.Params) *rig {
	t.Helper()
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 400}
	spec.Kernel.MaxRunTime = 3600 * sim.Second
	for i, mount := range []string{"/a", "/b"} {
		dp := mk(1024, 8192)
		dp.Name = fmt.Sprintf("%s-%d", dp.Name, i) // a machine's device names are unique
		spec.Disks = append(spec.Disks, machine.DiskSpec{Mount: mount, Params: dp, Inodes: 64})
	}
	return &rig{machine.New(spec)}
}

func (r *rig) run(t *testing.T, fn func(p *kernel.Proc)) {
	t.Helper()
	r.K.Spawn("w", func(p *kernel.Proc) {
		if err := r.Boot(p); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		fn(p)
	})
	if err := r.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMakeFileDeterministicContents(t *testing.T) {
	r := newRig(t, disk.RAMDisk)
	r.run(t, func(p *kernel.Proc) {
		if err := MakeFile(p, "/a/f", 100000, 9); err != nil {
			t.Fatalf("makefile: %v", err)
		}
		fd, err := p.Open("/a/f", kernel.ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		if sz, _ := p.FileSize(fd); sz != 100000 {
			t.Fatalf("size = %d", sz)
		}
		// The whole file, so the writes cut from one 64 KB period are held
		// to the per-byte definition across chunk boundaries, past the
		// period's end and in the ragged tail.
		buf := make([]byte, 100000)
		if n, err := p.Read(fd, buf); err != nil || n != len(buf) {
			t.Fatalf("read = (%d, %v)", n, err)
		}
		for i, b := range buf {
			want := byte(i>>8) ^ byte(i)*5 ^ 9
			if b != want {
				t.Fatalf("byte %d = %d, want %d", i, b, want)
			}
		}
		_ = p.Close(fd)
	})
}

func TestCopyModesProduceIdenticalFiles(t *testing.T) {
	const size = 300000
	for _, mode := range []CopyMode{CopyReadWrite, CopySplice, CopyMmap} {
		r := newRig(t, disk.RAMDisk)
		r.run(t, func(p *kernel.Proc) {
			if err := MakeFile(p, "/a/src", size, 4); err != nil {
				t.Fatal(err)
			}
			res, err := Copy(p, DefaultCopySpec("/a/src", "/b/dst", mode))
			if err != nil {
				t.Fatalf("%v copy: %v", mode, err)
			}
			if res.Bytes != size {
				t.Fatalf("%v moved %d bytes", mode, res.Bytes)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("%v elapsed %v", mode, res.Elapsed)
			}
			// Compare byte-for-byte through the read path.
			a, _ := p.Open("/a/src", kernel.ORdOnly)
			b, _ := p.Open("/b/dst", kernel.ORdOnly)
			ba, bb := make([]byte, 8192), make([]byte, 8192)
			for {
				na, _ := p.Read(a, ba)
				nb, _ := p.Read(b, bb)
				if na != nb {
					t.Fatalf("%v copy length mismatch", mode)
				}
				if na == 0 {
					break
				}
				for i := 0; i < na; i++ {
					if ba[i] != bb[i] {
						t.Fatalf("%v copy corrupted", mode)
					}
				}
			}
		})
	}
}

func TestSpliceCopyFasterThanReadWriteOnRAM(t *testing.T) {
	const size = 2 << 20
	measure := func(mode CopyMode) sim.Duration {
		r := newRig(t, disk.RAMDisk)
		var el sim.Duration
		r.run(t, func(p *kernel.Proc) {
			if err := MakeFile(p, "/a/src", size, 4); err != nil {
				t.Fatal(err)
			}
			if err := ColdStart(p, r.Cache, r.Disks[0], r.Disks[1]); err != nil {
				t.Fatal(err)
			}
			res, err := Copy(p, DefaultCopySpec("/a/src", "/b/dst", mode))
			if err != nil {
				t.Fatal(err)
			}
			el = res.Elapsed
		})
		return el
	}
	scp := measure(CopySplice)
	cp := measure(CopyReadWrite)
	if float64(cp) < 1.3*float64(scp) {
		t.Fatalf("scp (%v) should be much faster than cp (%v) on the RAM disk", scp, cp)
	}
}

func TestRunTestProgramIdleBaseline(t *testing.T) {
	r := newRig(t, disk.RAMDisk)
	r.run(t, func(p *kernel.Proc) {
		res := RunTestProgram(p, 50, 10*sim.Millisecond)
		if res.Ops != 50 {
			t.Fatalf("ops = %d", res.Ops)
		}
		// Idle machine: elapsed equals the pure compute time.
		if res.Elapsed != 500*sim.Millisecond {
			t.Fatalf("idle elapsed = %v, want exactly 500ms", res.Elapsed)
		}
	})
}

func TestLoopCopyStopsAndCleansUp(t *testing.T) {
	r := newRig(t, disk.RAMDisk)
	stop := false
	var rounds int
	r.K.Spawn("stopper", func(p *kernel.Proc) {
		p.SleepFor(2 * sim.Second)
		stop = true
	})
	r.run(t, func(p *kernel.Proc) {
		if err := MakeFile(p, "/a/src", 1<<20, 4); err != nil {
			t.Fatal(err)
		}
		var err error
		rounds, _, err = LoopCopy(p, DefaultCopySpec("/a/src", "/b/dst", CopySplice),
			r.Cache, []buf.Device{r.Disks[0], r.Disks[1]}, &stop)
		if err != nil {
			t.Fatalf("loopcopy: %v", err)
		}
	})
	if rounds < 2 {
		t.Fatalf("rounds = %d, want several in 2s", rounds)
	}
}

func TestColdStartForcesDeviceReads(t *testing.T) {
	r := newRig(t, disk.RAMDisk)
	r.run(t, func(p *kernel.Proc) {
		if err := MakeFile(p, "/a/src", 1<<20, 4); err != nil {
			t.Fatal(err)
		}
		if err := ColdStart(p, r.Cache, r.Disks[0]); err != nil {
			t.Fatal(err)
		}
		mt := p.Kernel().StartTrace(nil).Metrics()
		fd, _ := p.Open("/a/src", kernel.ORdOnly)
		buf := make([]byte, 8192)
		_, _ = p.Read(fd, buf)
		_ = p.Close(fd)
		if mt.EventCount[trace.KindDiskRead] == 0 {
			t.Fatal("read after cold start did not touch the device")
		}
	})
}

func TestCopyResultThroughput(t *testing.T) {
	r := CopyResult{Bytes: 1024 * 1024, Elapsed: sim.Second}
	if got := r.ThroughputKBs(); got != 1024 {
		t.Fatalf("throughput = %v, want 1024", got)
	}
	if (CopyResult{}).ThroughputKBs() != 0 {
		t.Fatal("zero elapsed should give zero throughput")
	}
}

func TestCopyModeString(t *testing.T) {
	if CopyReadWrite.String() != "cp" || CopySplice.String() != "scp" || CopyMmap.String() != "mcp" {
		t.Fatal("mode names wrong")
	}
}

// TestCopyClosesDescriptorsOnError: a copy whose move fails midway (the
// destination volume fills up) must leave neither descriptor open, on
// every data path. Descriptors are handed out lowest-free-first, so a
// leak shows as a probe open landing on a higher number than before.
func TestCopyClosesDescriptorsOnError(t *testing.T) {
	for _, mode := range []CopyMode{CopyReadWrite, CopySplice, CopyMmap, CopyVectored, CopyBatched} {
		r := newRig(t, disk.RAMDisk)
		r.run(t, func(p *kernel.Proc) {
			if err := MakeFile(p, "/a/src", 2<<20, 4); err != nil {
				t.Fatal(err)
			}
			if err := MakeFile(p, "/b/filler", 7<<20, 5); err != nil {
				t.Fatal(err)
			}
			lowestFree := func() int {
				fd, err := p.Open("/a/src", kernel.ORdOnly)
				if err != nil {
					t.Fatal(err)
				}
				_ = p.Close(fd)
				return fd
			}
			before := lowestFree()
			res, err := Copy(p, DefaultCopySpec("/a/src", "/b/dst", mode))
			if err == nil {
				t.Fatalf("%v: copy onto a full volume succeeded (%d bytes)", mode, res.Bytes)
			}
			if after := lowestFree(); after != before {
				t.Errorf("%v: failed copy (%v) left descriptors open: lowest free fd %d, was %d", mode, err, after, before)
			}
		})
	}
}

// TestCopySharesSourceBlocks: after cp and after mcp on a RAM machine,
// every destination block's platter entry is the source block's, the
// same host memory: each copyin of a whole block shared the block the
// copyout before it read (buf.Cache.CopyIn), and the fsync or msync
// lent it to the destination's platter.
func TestCopySharesSourceBlocks(t *testing.T) {
	const blocks = 40
	for _, mode := range []CopyMode{CopyReadWrite, CopyMmap} {
		r := newRig(t, disk.RAMDisk)
		r.run(t, func(p *kernel.Proc) {
			if err := MakeFile(p, "/a/src", blocks*8192, 4); err != nil {
				t.Fatal(err)
			}
			if err := ColdStart(p, r.Cache, r.Devices()...); err != nil {
				t.Fatal(err)
			}
			if _, err := Copy(p, DefaultCopySpec("/a/src", "/b/dst", mode)); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			src, dst := blockMap(t, p, "/a/src", blocks), blockMap(t, p, "/b/dst", blocks)
			for i := range blocks {
				s, d := r.Disks[0].PlatterBlock(int64(src[i])), r.Disks[1].PlatterBlock(int64(dst[i]))
				if s == nil || d != s {
					t.Fatalf("%v: destination block %d holds %p on its platter, the source %p", mode, i, d, s)
				}
			}
		})
	}
}

// blockMap returns the physical blocks of path's first n logical blocks.
func blockMap(t *testing.T, p *kernel.Proc, path string, n int64) []uint32 {
	t.Helper()
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(fd)
	f, err := p.FD(fd)
	if err != nil {
		t.Fatal(err)
	}
	blks, err := f.Ops().(*fs.File).SpliceMapRead(p.Ctx(), 0, n)
	if err != nil || int64(len(blks)) != n {
		t.Fatalf("%s: block map %v, %v", path, blks, err)
	}
	return blks
}

// BenchmarkCopyReadWrite is cp of a 32-block file between the two RAM
// disks of a warm machine, the destination truncated each time: the
// host's ns and bytes per copy of 256 KB.
func BenchmarkCopyReadWrite(b *testing.B) {
	r := newRig(b, disk.RAMDisk)
	r.K.Spawn("w", func(p *kernel.Proc) {
		if err := r.Boot(p); err != nil {
			b.Error(err)
			return
		}
		if err := MakeFile(p, "/a/src", 32*8192, 4); err != nil {
			b.Error(err)
			return
		}
		spec := DefaultCopySpec("/a/src", "/b/dst", CopyReadWrite)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := Copy(p, spec); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := r.K.Run(); err != nil {
		b.Fatal(err)
	}
}
