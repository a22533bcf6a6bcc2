package vm_test

import (
	"bytes"
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
	"kdp/internal/vm"
)

const bsize = 8192

type rig struct {
	k    *kernel.Kernel
	c    *buf.Cache
	d    *disk.Disk
	fsy  *fs.FS
	pool *vm.Pool
	tr   *trace.Tracer
}

// newRig formats and mounts a filesystem on a RAM disk at /v, with a
// page pool of the given size registered as the kernel's VM provider.
func newRig(t *testing.T, frames int) *rig {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 1200 * sim.Second
	k := kernel.New(cfg)
	r := &rig{k: k}
	r.tr = k.StartTrace(nil)
	r.c = buf.NewCache(k, 64, bsize)
	r.d = disk.New(k, disk.RAMDisk(600, bsize))
	r.d.SetCache(r.c)
	if _, err := fs.Mkfs(r.d, 128); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	r.pool = vm.NewPool(k, frames, bsize)
	k.SetVM(r.pool)
	return r
}

func (r *rig) run(t *testing.T, name string, fn func(p *kernel.Proc)) {
	t.Helper()
	r.k.Spawn(name, func(p *kernel.Proc) {
		if r.fsy == nil {
			f, err := fs.Mount(p.Ctx(), r.c, r.d)
			if err != nil {
				t.Errorf("mount: %v", err)
				return
			}
			r.fsy = f
			r.k.Mount("/v", f)
		}
		fn(p)
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + seed
	}
	return p
}

// writeFile creates path with the given content through write().
func writeFile(t *testing.T, p *kernel.Proc, path string, data []byte) {
	t.Helper()
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if n, err := p.Write(fd, data); err != nil || n != len(data) {
		t.Fatalf("write %s: n=%d err=%v", path, n, err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

// readFile reads path in full through read().
func readFile(t *testing.T, p *kernel.Proc, path string) []byte {
	t.Helper()
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	sz, err := p.FileSize(fd)
	if err != nil {
		t.Fatalf("fstat %s: %v", path, err)
	}
	out := make([]byte, sz)
	if n, err := p.Read(fd, out); err != nil || int64(n) != sz {
		t.Fatalf("read %s: n=%d err=%v", path, n, err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
	return out
}

func TestMmapReadMatchesFile(t *testing.T) {
	r := newRig(t, 32)
	data := pattern(3*bsize+500, 1)
	r.run(t, "setup", func(p *kernel.Proc) {
		writeFile(t, p, "/v/a", data)
	})
	r.run(t, "mmap", func(p *kernel.Proc) {
		fd, err := p.Open("/v/a", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		// The mapping must survive closing the descriptor.
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		got := make([]byte, len(data))
		if err := p.MemRead(addr, got); err != nil {
			t.Fatalf("memread: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("mapped read differs from written data")
		}
		// Bytes past EOF inside the last page read as zeros.
		tail := make([]byte, 100)
		if err := p.MemRead(addr+int64(len(data)), tail); err != nil {
			t.Fatalf("memread past EOF: %v", err)
		}
		for i, b := range tail {
			if b != 0 {
				t.Fatalf("tail[%d] = %d, want 0", i, b)
			}
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	})
	m := r.tr.Metrics()
	if m.VMFaults == 0 || m.VMPageins == 0 {
		t.Errorf("faults=%d pageins=%d, want both nonzero", m.VMFaults, m.VMPageins)
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestMmapSharedWriteVisibleToRead(t *testing.T) {
	r := newRig(t, 32)
	data := pattern(2*bsize+100, 9)
	r.run(t, "mcp", func(p *kernel.Proc) {
		fd, err := p.Open("/v/b", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.MemWrite(addr, data); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		// A mapped store is visible to a mapped load before writeback.
		probe := make([]byte, 64)
		if err := p.MemRead(addr+int64(bsize), probe); err != nil {
			t.Fatalf("memread: %v", err)
		}
		if !bytes.Equal(probe, data[bsize:bsize+64]) {
			t.Error("mapped load does not see mapped store")
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		// The stores landed in the blocks' cache buffers: read() sees them.
		if got := readFile(t, p, "/v/b"); !bytes.Equal(got, data) {
			t.Error("read() does not see mmap stores after munmap")
		}
	})
	m := r.tr.Metrics()
	if m.VMPageouts == 0 {
		t.Errorf("pageouts = 0, want nonzero")
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestMmapGrowsFileAndZeroFillsGap(t *testing.T) {
	r := newRig(t, 32)
	tail := pattern(200, 3)
	off := int64(2 * bsize) // page-aligned offset mapping past EOF
	r.run(t, "grow", func(p *kernel.Proc) {
		writeFile(t, p, "/v/g", pattern(100, 5))
		fd, err := p.Open("/v/g", kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, off, int64(len(tail)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if sz, _ := p.FileSize(fd); sz != off+int64(len(tail)) {
			t.Errorf("size = %d, want %d (mmap extends a writable shared mapping)", sz, off+int64(len(tail)))
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.MemWrite(addr, tail); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		got := readFile(t, p, "/v/g")
		want := make([]byte, off+int64(len(tail)))
		copy(want, pattern(100, 5))
		copy(want[off:], tail)
		if !bytes.Equal(got, want) {
			t.Error("grown file content wrong (hole must read as zeros)")
		}
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestPrivateCOWIsolation(t *testing.T) {
	r := newRig(t, 32)
	orig := pattern(2*bsize, 11)
	junk := pattern(bsize, 77)
	r.run(t, "cow", func(p *kernel.Proc) {
		writeFile(t, p, "/v/c", orig)
		fd, err := p.Open("/v/c", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Private writable mapping on a read-only fd is legal: the
		// stores never reach the file.
		priv, err := p.Mmap(fd, 0, int64(len(orig)), kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate)
		if err != nil {
			t.Fatalf("mmap private: %v", err)
		}
		shrd, err := p.Mmap(fd, 0, int64(len(orig)), kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap shared: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.MemWrite(priv, junk); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		// The private view sees the store; page two is still shared.
		got := make([]byte, len(orig))
		if err := p.MemRead(priv, got); err != nil {
			t.Fatalf("memread priv: %v", err)
		}
		if !bytes.Equal(got[:bsize], junk) || !bytes.Equal(got[bsize:], orig[bsize:]) {
			t.Error("private view wrong after COW")
		}
		// The shared view and the file are untouched.
		if err := p.MemRead(shrd, got); err != nil {
			t.Fatalf("memread shrd: %v", err)
		}
		if !bytes.Equal(got, orig) {
			t.Error("shared view sees private store")
		}
		// Msync on a private mapping is a no-op success.
		if err := p.Msync(priv); err != nil {
			t.Errorf("msync private: %v", err)
		}
		if err := p.Munmap(priv); err != nil {
			t.Fatalf("munmap priv: %v", err)
		}
		if err := p.Munmap(shrd); err != nil {
			t.Fatalf("munmap shrd: %v", err)
		}
		if got := readFile(t, p, "/v/c"); !bytes.Equal(got, orig) {
			t.Error("file modified through private mapping")
		}
	})
	m := r.tr.Metrics()
	if m.VMCows == 0 || m.VMCowBytes != m.VMCows*bsize {
		t.Errorf("cows=%d cow_bytes=%d", m.VMCows, m.VMCowBytes)
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestPoolPressureEvictsAndRefaults(t *testing.T) {
	r := newRig(t, 4) // 4-frame pool, 12-page file: heavy pressure
	data := pattern(12*bsize, 21)
	r.run(t, "pressure", func(p *kernel.Proc) {
		writeFile(t, p, "/v/big", data)
		fd, err := p.Open("/v/big", kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		got := make([]byte, len(data))
		if err := p.MemRead(addr, got); err != nil {
			t.Fatalf("memread: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("first pass differs")
		}
		if res := r.pool.Resident(); res > 4 {
			t.Errorf("resident = %d > pool size 4", res)
		}
		faults1 := r.tr.Metrics().VMFaults
		// Second pass refaults evicted pages.
		if err := p.MemRead(addr, got); err != nil {
			t.Fatalf("memread 2: %v", err)
		}
		if r.tr.Metrics().VMFaults <= faults1 {
			t.Error("no refaults under pool pressure")
		}
		// Dirty the whole file: each store into a clean page is a pageout,
		// and the clock evicts dirty victims.
		if err := p.MemWrite(addr, data); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		if r.tr.Metrics().VMPageouts == 0 {
			t.Error("no pageouts under dirty pressure")
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if got := readFile(t, p, "/v/big"); !bytes.Equal(got, data) {
			t.Error("content wrong after eviction/pageout cycles")
		}
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// Satellite regression: a mapped page's write that hits a device error
// latches the sticky per-device flag like any delayed write — the next
// msync reports ErrIO. msync only observes the latch: it must not
// consume it out from under a concurrent fsync, which is the call the
// latch exists to serve (and which consumes it exactly once).
func TestMsyncSurfacesPageoutWriteError(t *testing.T) {
	r := newRig(t, 32)
	r.run(t, "werr", func(p *kernel.Proc) {
		fd, err := p.Open("/v/e", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, pattern(bsize, 30)); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		// The write fault allocated the backing block; make writes to
		// it fail.
		f, err := p.FD(fd)
		if err != nil {
			t.Fatalf("fd: %v", err)
		}
		blks, err := f.Ops().(*fs.File).SpliceMapRead(p.Ctx(), 0, 1)
		if err != nil || blks[0] == 0 {
			t.Fatalf("block table: %v %v", blks, err)
		}
		defect := r.k.Faults().Arm(kernel.FaultArm{Site: r.d.WriteSite(), Every: 1, Match: int64(blks[0]), Count: -1, Quiet: true})
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.Msync(addr); err != kernel.ErrIO {
			t.Errorf("msync = %v, want ErrIO", err)
		}
		r.k.Faults().Remove(defect)
		// The latch survived the msync: a second msync (clean flush,
		// fault withdrawn) still observes it.
		if err := p.Msync(addr); err != kernel.ErrIO {
			t.Errorf("second msync = %v, want ErrIO (msync must not consume the latch)", err)
		}
		// fsync is the consumer: it reports the latched error exactly
		// once, even though msync reported it twice already.
		fd2, err := p.Open("/v/e", kernel.ORdWr)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := p.Fsync(fd2); err != kernel.ErrIO {
			t.Errorf("fsync = %v, want ErrIO (latch belongs to fsync)", err)
		}
		if err := p.Fsync(fd2); err != nil {
			t.Errorf("second fsync = %v, want nil (latch consumed)", err)
		}
		if err := p.Close(fd2); err != nil {
			t.Fatalf("close 2: %v", err)
		}
		// With the latch consumed, msync and munmap are clean.
		if err := p.Msync(addr); err != nil {
			t.Errorf("msync after consume = %v, want nil", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	})
	if r.d.Errors() == 0 {
		t.Error("no injected errors consumed")
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// Satellite regression: ErrIO on a mapped page's *delayed write* (munmap
// lets go of the dirty buffer, the later flush fails) surfaces at
// SyncAll, like any failed delayed write.
func TestPageoutDelayedWriteErrorLatch(t *testing.T) {
	r := newRig(t, 32)
	r.run(t, "latch", func(p *kernel.Proc) {
		fd, err := p.Open("/v/l", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, pattern(bsize, 31)); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		f, _ := p.FD(fd)
		blks, err := f.Ops().(*fs.File).SpliceMapRead(p.Ctx(), 0, 1)
		if err != nil || blks[0] == 0 {
			t.Fatalf("block table: %v %v", blks, err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		r.k.Faults().Arm(kernel.FaultArm{Site: r.d.WriteSite(), Every: 1, Match: int64(blks[0]), Count: 1, Quiet: true})
		// Munmap lets go of the dirty buffer, still a delayed write; no
		// disk I/O yet, so no error yet.
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		// The flush hits the bad block and the error surfaces.
		if err := r.fsy.SyncAll(p.Ctx()); err != kernel.ErrIO {
			t.Errorf("SyncAll = %v, want ErrIO", err)
		}
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// Satellite regression: disk.Crash while the pool holds dirty mapped
// pages must not corrupt the page pool — invariants hold throughout
// and teardown drains cleanly. The cache's side of a power cut is not
// taken: the held buffers are the mapping's memory, and Crash refuses to
// run while a page is mapped.
func TestDiskCrashDuringPageoutPoolSafe(t *testing.T) {
	r := newRig(t, 4)
	data := pattern(8*bsize, 41)
	r.run(t, "crash", func(p *kernel.Proc) {
		writeFile(t, p, "/v/x", data)
		fd, err := p.Open("/v/x", kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Dirty the first half: the clock's evictions start writes.
		if err := p.MemWrite(addr, data[:4*bsize]); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		// The disk's power cut mid-stream: queued requests drop.
		r.d.Crash()
		if err := r.pool.CheckInvariants(); err != nil {
			t.Fatalf("invariants after crash: %v", err)
		}
		// The pool keeps working: more stores, more evictions.
		if err := p.MemWrite(addr+4*int64(bsize), data[4*bsize:]); err != nil {
			t.Fatalf("memwrite after crash: %v", err)
		}
		if err := r.pool.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap after crash: %v", err)
		}
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestProcExitReleasesMappings(t *testing.T) {
	r := newRig(t, 32)
	data := pattern(bsize+10, 51)
	r.run(t, "leaker", func(p *kernel.Proc) {
		fd, err := p.Open("/v/z", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, data); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		// Exit without munmap: the AtExit hook must release the
		// mapping, let go of the dirty buffers, and drop the inode ref.
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain after leaky exit: %v", err)
	}
	r.run(t, "verify", func(p *kernel.Proc) {
		if got := readFile(t, p, "/v/z"); !bytes.Equal(got, data) {
			t.Error("data leaked with the mapping")
		}
	})
}

func TestMmapArgumentErrors(t *testing.T) {
	r := newRig(t, 8)
	r.run(t, "args", func(p *kernel.Proc) {
		writeFile(t, p, "/v/f", pattern(bsize, 61))
		fd, err := p.Open("/v/f", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cases := []struct {
			name              string
			fd                int
			off, length       int64
			prot, flags, want int
		}{
			{"bad fd", 99, 0, bsize, kernel.ProtRead, kernel.MapShared, 0},
			{"zero length", fd, 0, 0, kernel.ProtRead, kernel.MapShared, 0},
			{"unaligned off", fd, 100, bsize, kernel.ProtRead, kernel.MapShared, 0},
			{"both types", fd, 0, bsize, kernel.ProtRead, kernel.MapShared | kernel.MapPrivate, 0},
			{"no type", fd, 0, bsize, kernel.ProtRead, 0, 0},
			{"no read prot", fd, 0, bsize, kernel.ProtWrite, kernel.MapShared, 0},
			{"shared write on rdonly fd", fd, 0, bsize, kernel.ProtRead | kernel.ProtWrite, kernel.MapShared, 0},
		}
		for _, tc := range cases {
			if _, err := p.Mmap(tc.fd, tc.off, tc.length, tc.prot, tc.flags); err == nil {
				t.Errorf("%s: mmap succeeded, want error", tc.name)
			}
		}
		// Valid mapping for access-error checks.
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, []byte{1}); err != kernel.ErrInval {
			t.Errorf("store to read-only mapping = %v, want ErrInval", err)
		}
		if err := p.MemRead(addr+2*bsize, make([]byte, 8)); err != kernel.ErrInval {
			t.Errorf("load outside mapping = %v, want ErrInval", err)
		}
		if err := p.Munmap(addr + 4096); err != kernel.ErrInval {
			t.Errorf("munmap mid-mapping = %v, want ErrInval", err)
		}
		if err := p.Msync(addr + 4096); err != kernel.ErrInval {
			t.Errorf("msync mid-mapping = %v, want ErrInval", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if err := p.Munmap(addr); err != kernel.ErrInval {
			t.Errorf("double munmap = %v, want ErrInval", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestNoProviderReturnsOpNotSupp(t *testing.T) {
	cfg := kernel.DefaultConfig()
	k := kernel.New(cfg)
	k.Spawn("noprov", func(p *kernel.Proc) {
		if _, err := p.Mmap(0, 0, 1, kernel.ProtRead, kernel.MapShared); err != kernel.ErrOpNotSupp {
			p.Kernel().Abort(nil)
		}
		if err := p.Munmap(0); err != kernel.ErrOpNotSupp {
			p.Kernel().Abort(nil)
		}
		if err := p.Msync(0); err != kernel.ErrOpNotSupp {
			p.Kernel().Abort(nil)
		}
		if err := p.MemRead(0, make([]byte, 1)); err != kernel.ErrOpNotSupp {
			p.Kernel().Abort(nil)
		}
		if err := p.MemWrite(0, []byte{1}); err != kernel.ErrOpNotSupp {
			p.Kernel().Abort(nil)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestMsyncDurabilityEqualsFsync(t *testing.T) {
	r := newRig(t, 32)
	data := pattern(2*bsize, 71)
	r.run(t, "msync", func(p *kernel.Proc) {
		fd, err := p.Open("/v/m", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.MemWrite(addr, data); err != nil {
			t.Fatalf("memwrite: %v", err)
		}
		if err := p.Msync(addr); err != nil {
			t.Fatalf("msync: %v", err)
		}
		// fsync durability: everything on the platter. The unmap writes
		// nothing more, and a power cut after it loses nothing.
		writes := r.tr.Metrics().EventCount[trace.KindDiskWrite]
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if n := r.tr.Metrics().EventCount[trace.KindDiskWrite] - writes; n != 0 {
			t.Fatalf("munmap after msync wrote %d blocks", n)
		}
		r.d.Crash()
		r.c.Crash(r.d)
	})
	// Repair and remount, then verify the content survived.
	r.k.Spawn("verify", func(p *kernel.Proc) {
		if _, err := fs.FsckRepair(p.Ctx(), r.c, r.d); err != nil {
			t.Errorf("fsck repair: %v", err)
			return
		}
		f, err := fs.Mount(p.Ctx(), r.c, r.d)
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		r.k.Mount("/v", f)
		if got := readFile(t, p, "/v/m"); !bytes.Equal(got, data) {
			t.Error("msync'd data lost across crash+repair")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestConcurrentMappersShareObject(t *testing.T) {
	r := newRig(t, 6)
	data := pattern(6*bsize, 81)
	r.run(t, "setup", func(p *kernel.Proc) {
		writeFile(t, p, "/v/s", data)
	})
	// Three processes map the same file concurrently under pressure:
	// pageins are shared (one object), evictions interleave.
	for i := 0; i < 3; i++ {
		r.k.Spawn("mapper", func(p *kernel.Proc) {
			fd, err := p.Open("/v/s", kernel.ORdOnly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			addr, err := p.Mmap(fd, 0, int64(len(data)), kernel.ProtRead, kernel.MapShared)
			if err != nil {
				t.Errorf("mmap: %v", err)
				return
			}
			_ = p.Close(fd)
			got := make([]byte, len(data))
			for pass := 0; pass < 2; pass++ {
				if err := p.MemRead(addr, got); err != nil {
					t.Errorf("memread: %v", err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Error("concurrent mapped read differs")
					return
				}
				p.Yield()
			}
			if err := p.Munmap(addr); err != nil {
				t.Errorf("munmap: %v", err)
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := r.pool.CheckDrained(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestInvariantsDetectDamage(t *testing.T) {
	for _, kind := range []string{"ring-orphan", "hand", "refcount", "page-buffer"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, 8)
			r.run(t, "damage-"+kind, func(p *kernel.Proc) {
				fd, err := p.Open("/v/d", kernel.OCreat|kernel.ORdWr)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
				if err != nil {
					t.Fatalf("mmap: %v", err)
				}
				if err := p.MemWrite(addr, pattern(bsize, 91)); err != nil {
					t.Fatalf("memwrite: %v", err)
				}
				if err := r.pool.CheckInvariants(); err != nil {
					t.Fatalf("healthy pool: %v", err)
				}
				undo := r.pool.Damage(kind)
				if err := r.pool.CheckInvariants(); err == nil {
					t.Errorf("damage %q undetected", kind)
				}
				undo()
				if err := r.pool.CheckInvariants(); err != nil {
					t.Fatalf("repaired pool: %v", err)
				}
				if err := p.Munmap(addr); err != nil {
					t.Errorf("munmap: %v", err)
				}
				if err := p.Close(fd); err != nil {
					t.Errorf("close: %v", err)
				}
			})
		})
	}
}

// faultRig maps a 64-page file shared through an 8-frame pool and hands
// body two functions that touch the next page in a cycle: every call is
// a major fault that evicts a page and pages it in from the buffer
// cache. fault loads a byte; cycle stores it back and msyncs. A third,
// cow, stores a byte into the next page of a private mapping of the
// file, breaking its sharing: body may call it 64 times.
func faultRig(tb testing.TB, body func(fault, cycle, cow func())) {
	const npages = 64
	cfg := kernel.DefaultConfig()
	k := kernel.New(cfg)
	c := buf.NewCache(k, 128, bsize)
	d := disk.New(k, disk.RAMDisk(600, bsize))
	d.SetCache(c)
	if _, err := fs.Mkfs(d, 128); err != nil {
		tb.Fatalf("mkfs: %v", err)
	}
	pool := vm.NewPool(k, 8, bsize)
	k.SetVM(pool)
	k.Spawn("faulter", func(p *kernel.Proc) {
		f, err := fs.Mount(p.Ctx(), c, d)
		if err != nil {
			tb.Errorf("mount: %v", err)
			return
		}
		k.Mount("/v", f)
		fd, _ := p.Open("/v/f", kernel.OCreat|kernel.ORdWr)
		if _, err := p.Write(fd, pattern(npages*bsize, 3)); err != nil {
			tb.Errorf("write: %v", err)
			return
		}
		addr, err := p.Mmap(fd, 0, npages*bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			tb.Errorf("mmap: %v", err)
			return
		}
		one, next := make([]byte, 1), int64(0)
		fault := func() {
			if err := p.MemRead(addr+next*bsize, one); err != nil || one[0] != byte(3) {
				tb.Errorf("page %d: %v, first byte %d", next, err, one[0])
			}
			next = (next + 1) % npages
		}
		cycle := func() {
			if err := p.MemWrite(addr+next*bsize, one); err != nil {
				tb.Errorf("page %d: store: %v", next, err)
			}
			if err := p.Msync(addr); err != nil {
				tb.Errorf("msync: %v", err)
			}
			next = (next + 1) % npages
		}
		for i := 0; i < 2*npages; i++ { // warm-up: the pool is full and has cycled
			fault()
			cycle()
		}
		priv, err := p.Mmap(fd, 0, npages*bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate)
		if err != nil {
			tb.Errorf("mmap private: %v", err)
			return
		}
		nextCOW := int64(0)
		cow := func() {
			if err := p.MemWrite(priv+nextCOW*bsize, one); err != nil {
				tb.Errorf("private page %d: store: %v", nextCOW, err)
			}
			nextCOW++
		}
		body(fault, cycle, cow)
		_ = p.Munmap(priv)
		_ = p.Munmap(addr)
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	if pool.Resident() != 0 {
		tb.Errorf("%d frames resident at the end", pool.Resident())
	}
}

// TestPageFaultInFullPoolAllocatesNothing: the fault takes the victim's
// frame — record and memory — instead of asking for a new one.
func TestPageFaultInFullPoolAllocatesNothing(t *testing.T) {
	allocs := -1.0
	faultRig(t, func(fault, _, _ func()) { allocs = testing.AllocsPerRun(200, fault) })
	if allocs != 0 {
		t.Fatalf("a page fault in a full pool allocated %.2f times, want 0", allocs)
	}
}

// TestMappedStoreCycleAllocatesNothing: a warm page-in, a store and an
// msync move block references, not bytes the Go heap must supply — the
// page shares its platter's block, the store copies it into the block
// the last write let go of, and the msync lends that block back.
func TestMappedStoreCycleAllocatesNothing(t *testing.T) {
	allocs := -1.0
	faultRig(t, func(_, cycle, _ func()) { allocs = testing.AllocsPerRun(200, cycle) })
	if allocs != 0 {
		t.Fatalf("a page-in, store and msync allocated %.2f times, want 0", allocs)
	}
}

// TestCOWStoreAllocatesNothing: once the recycler is warm, a store that
// breaks a private mapping's sharing takes its copy's block from sim's
// recycler, not from the heap.
func TestCOWStoreAllocatesNothing(t *testing.T) {
	allocs := -1.0
	faultRig(t, func(_, _, cow func()) {
		warm := make([]*sim.Block, 64)
		for i := range warm {
			warm[i] = sim.NewBlock(bsize)
		}
		for _, b := range warm {
			b.Unref()
		}
		allocs = testing.AllocsPerRun(32, cow)
	})
	if allocs != 0 {
		t.Fatalf("a copy-on-write store allocated %.2f times, want 0", allocs)
	}
}

func BenchmarkPageFaultWarm(b *testing.B) {
	b.ReportAllocs()
	faultRig(b, func(fault, _, _ func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fault()
		}
	})
}

// TestCOWPageOwnedWhileItsCopyIsCharged: the store that breaks sharing
// charges the page copy, and a CPU charge begins and ends at a
// scheduling boundary, where a probe checks the pool. The catalog must
// hold there, and the copy must already be its mapping's: a probe that
// finds the object page resident and no longer wired — the fault has
// taken its copy, which is being charged or done — finds the shadow
// slot holding the copy. The copy was once a page in the clock ring installed after the
// charge, so every copy-on-write fault under a probe tripped
// vm-frame-owner; it is now a block its shadow slot holds, installed
// before the charge.
func TestCOWPageOwnedWhileItsCopyIsCharged(t *testing.T) {
	r := newRig(t, 8)
	var proc *kernel.Proc
	addr, seen := int64(-1), 0
	r.k.SetProbe(func() {
		if err := r.pool.CheckInvariants(); err != nil {
			r.k.Abort(err)
		}
		if proc == nil || addr < 0 || r.pool.PageData(proc, addr) == nil || r.pool.PageWired(proc, addr) {
			return
		}
		if r.pool.Shadow(proc, addr) == nil {
			r.k.Abort(errors.New("the page copy is charged before its mapping's shadow slot holds it"))
		}
		seen++
	})
	r.run(t, "cow", func(p *kernel.Proc) {
		writeFile(t, p, "/v/f", pattern(bsize, 3))
		fd, err := p.Open("/v/f", kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		proc = p
		addr, err = p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, []byte{9}); err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		_ = p.Close(fd)
	})
	if n := r.tr.Metrics().VMCows; n != 1 {
		t.Fatalf("%d copy-on-write faults, want 1", n)
	}
	if seen == 0 {
		t.Fatal("no probe ran while the copy was charged")
	}
}
