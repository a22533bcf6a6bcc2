package vm_test

import (
	"bytes"
	"errors"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// An allocating write fault takes its block from the non-zero-filling
// bmap: the platter under a fresh page holds whatever the block's
// previous owner left there. These tests run on a volume whose every
// free block carries 0xA5 and hold the mapping to the two promises that
// makes necessary — none of those bytes is ever read back or made
// durable through the new file, and the block goes to the device once.

const stale = 0xA5

// staleVolume builds a one-disk machine mounted at /v and runs body on
// it after filling the volume with a file of 0xA5 bytes, fsyncing and
// unlinking it: the blocks return to the bitmap un-zeroed, and their
// buffers stay in the cache.
func staleVolume(t *testing.T, frames int, body func(m *machine.Machine, p *kernel.Proc)) *machine.Machine {
	t.Helper()
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 32, VMPages: frames,
		Disks: []machine.DiskSpec{{Mount: "/v", Params: disk.RAMDisk(96, machine.BlockSize), Inodes: 16}}}
	spec.Kernel.MaxRunTime = 600 * sim.Second
	m := machine.New(spec)
	m.K.StartTrace(nil)
	m.K.Spawn("fill", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		fd, err := p.Open("/v/old", kernel.OCreat|kernel.OWrOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		blk := bytes.Repeat([]byte{stale}, machine.BlockSize)
		for err == nil {
			_, err = p.Write(fd, blk)
		}
		if !errors.Is(err, kernel.ErrNoSpace) {
			t.Errorf("fill: %v, want ErrNoSpace", err)
		}
		if err := p.Fsync(fd); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := p.Unlink("/v/old"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		body(m, p)
	})
	if err := m.K.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	return m
}

const (
	freshPages = 4
	storeOff   = 4000 // the middle of a page
)

var stored = pattern(100, 17)

// mapNew creates /v/new and maps it shared-writable over npages pages,
// all of them holes.
func mapNew(t *testing.T, p *kernel.Proc, npages int64) (fd int, addr int64) {
	t.Helper()
	fd, err := p.Open("/v/new", kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	addr, err = p.Mmap(fd, 0, npages*bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	return fd, addr
}

// mapFresh maps four pages of holes and stores 100 bytes in the middle
// of pages 0 and 2.
func mapFresh(t *testing.T, p *kernel.Proc) (fd int, addr int64) {
	t.Helper()
	fd, addr = mapNew(t, p, freshPages)
	for _, pg := range []int64{0, 2} {
		if err := p.MemWrite(addr+pg*bsize+storeOff, stored); err != nil {
			t.Fatalf("store to page %d: %v", pg, err)
		}
	}
	return fd, addr
}

// checkFile holds got to npages pages of zeros but for the stored bytes
// in the middle of the pages named: what /v/new must hold, and nothing
// of what its blocks held before.
func checkFile(t *testing.T, how string, got []byte, npages int, pages ...int) {
	t.Helper()
	want := make([]byte, npages*bsize)
	for _, pg := range pages {
		copy(want[pg*bsize+storeOff:], stored)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d bytes, want %d", how, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d (page %d + %d) = %#x, want %#x", how, i, i/bsize, i%bsize, got[i], want[i])
		}
	}
}

func TestFreshBlockNeverDurableStale(t *testing.T) {
	staleVolume(t, 8, func(m *machine.Machine, p *kernel.Proc) {
		fd, addr := mapFresh(t, p)
		if err := p.Msync(addr); err != nil {
			t.Fatalf("msync: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := m.PowerCut(p); err != nil {
			t.Fatalf("power cut: %v", err)
		}
		if _, err := m.Recover(p, 0); err != nil {
			t.Fatalf("recover: %v", err)
		}
		checkFile(t, "read after msync, power cut and recovery", readFile(t, p, "/v/new"), freshPages, 0, 2)
	})
}

func TestFreshBlockEvictedAndRefaulted(t *testing.T) {
	m := staleVolume(t, 2, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapFresh(t, p)
		// Two frames, four pages: loading pages 1 and 3 makes the clock
		// page out and evict 0 and 2, which then fault back in.
		got := make([]byte, freshPages*bsize)
		for _, pg := range []int64{1, 3, 0, 2} {
			if err := p.MemRead(addr+pg*bsize, got[pg*bsize:(pg+1)*bsize]); err != nil {
				t.Fatalf("load page %d: %v", pg, err)
			}
		}
		checkFile(t, "loads after eviction", got, freshPages, 0, 2)
	})
	if n := m.K.Tracer().Metrics().VMPageouts; n != 2 {
		t.Errorf("pageouts = %d, want 2 (pages 0 and 2 evicted dirty)", n)
	}
}

func TestFreshBlockUnmappedWithoutMsync(t *testing.T) {
	staleVolume(t, 8, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapFresh(t, p)
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		checkFile(t, "read after munmap", readFile(t, p, "/v/new"), freshPages, 0, 2)
	})
}

// TestFreshPageBornDirty: the page of an allocating write fault is
// dirty before the store that caused the fault lands. A kernel-mode
// charge is not preemptible today, so no schedule puts another process
// between the fault and its store; WriteFault (export_test.go) opens
// that window by hand, and a second process fsyncs the file in it. The
// fsync must find the page and page its zeros out — a clean page there
// would leave the file pointing at the previous owner's bytes, for
// read() now and for whoever reads the platter after a crash.
func TestFreshPageBornDirty(t *testing.T) {
	var faulted, synced int // wait channels
	m := staleVolume(t, 8, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapNew(t, p, 1)
		m.K.Spawn("syncer", func(q *kernel.Proc) {
			_ = q.Sleep(&faulted, kernel.PSLEP)
			qfd, err := q.Open("/v/new", kernel.ORdWr)
			if err != nil {
				t.Errorf("open: %v", err)
			}
			if err := q.Fsync(qfd); err != nil {
				t.Errorf("fsync: %v", err)
			}
			if n := m.K.Tracer().Metrics().VMPageouts; n != 1 {
				t.Errorf("fsync between the fault and the store paged out %d pages, want 1", n)
			}
			checkFile(t, "read() after that fsync", readFile(t, q, "/v/new"), 1)
			m.K.Wakeup(&synced)
		})
		p.Yield() // the syncer runs up to its sleep
		if err := m.Pool.WriteFault(p, addr+storeOff); err != nil {
			t.Fatalf("write fault: %v", err)
		}
		m.K.Wakeup(&faulted)
		_ = p.Sleep(&synced, kernel.PSLEP)
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		checkFile(t, "read after the store and munmap", readFile(t, p, "/v/new"), 1, 0)
	})
	if n := m.K.Tracer().Metrics().VMPageouts; n != 2 {
		t.Errorf("pageouts = %d, want 2 (the zero page under fsync, the store at munmap)", n)
	}
}

// TestStoreToResidentHoleGetsABlock: a hole loaded through a writable
// shared mapping is a resident page without a block; the store that
// follows must give it one rather than dirty a page that has nowhere to
// go.
func TestStoreToResidentHoleGetsABlock(t *testing.T) {
	staleVolume(t, 8, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapNew(t, p, 1)
		if err := p.MemRead(addr, make([]byte, 8)); err != nil {
			t.Fatalf("load: %v", err)
		}
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		checkFile(t, "read after a store into a hole that was loaded first", readFile(t, p, "/v/new"), 1, 0)
	})
}

// blockWrites records, for one device, how many times each block was
// written and every vm.pageout's block.
type blockWrites struct {
	dev      string
	writes   map[int64]int
	pageouts []int64
}

func (w *blockWrites) Emit(ev trace.Event) {
	switch {
	case ev.Name != w.dev:
	case ev.Kind == trace.KindDiskWrite:
		w.writes[ev.Arg1]++
	case ev.Kind == trace.KindVMPageout:
		w.pageouts = append(w.pageouts, ev.Arg2)
	}
}

// TestMappedCopyWritesEachBlockOnce pins the mechanism, not the speed:
// a 16-page mcp reads 16 source blocks in, pages 16 destination blocks
// out, and each of those goes to the device exactly once — no
// zero-filled twin precedes it.
func TestMappedCopyWritesEachBlockOnce(t *testing.T) {
	const npages = 16
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 64, VMPages: 64}
	spec.Kernel.MaxRunTime = 600 * sim.Second
	for _, d := range []struct{ mount, name string }{{"/a", "ram-a"}, {"/b", "ram-b"}} {
		dp := disk.RAMDisk(128, machine.BlockSize)
		dp.Name = d.name
		spec.Disks = append(spec.Disks, machine.DiskSpec{Mount: d.mount, Params: dp, Inodes: 16})
	}
	m := machine.New(spec)
	rec := &blockWrites{dev: "ram-b", writes: map[int64]int{}}
	tr := m.K.StartTrace(rec)
	m.K.Spawn("mcp", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		if err := workload.MakeFile(p, "/a/src", npages*bsize, 3); err != nil {
			t.Errorf("makefile: %v", err)
			return
		}
		res, err := workload.Copy(p, workload.DefaultCopySpec("/a/src", "/b/dst", workload.CopyMmap))
		if err != nil || res.Bytes != npages*bsize {
			t.Errorf("mcp: %d bytes, %v", res.Bytes, err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	tm := tr.Metrics()
	if tm.VMFaults != 2*npages || tm.VMPageins != npages || tm.VMPageouts != npages {
		t.Errorf("faults=%d pageins=%d pageouts=%d, want %d, %d, %d",
			tm.VMFaults, tm.VMPageins, tm.VMPageouts, 2*npages, npages, npages)
	}
	if n := len(rec.pageouts); n != npages {
		t.Fatalf("%d pageouts to the destination, want %d", n, npages)
	}
	for _, blk := range rec.pageouts {
		if n := rec.writes[blk]; n != 1 {
			t.Errorf("destination block %d written %d times, want once", blk, n)
		}
	}
}

// TestWriteFaultCreatesNoDelayedWrite: the one delayed write a store
// into a hole makes is the allocator's bitmap block; the data block
// gets no buffer until it is paged out.
func TestWriteFaultCreatesNoDelayedWrite(t *testing.T) {
	staleVolume(t, 8, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapNew(t, p, 1)
		before := m.Cache.Stats()
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		after := m.Cache.Stats()
		if n := after.DelayedWrites - before.DelayedWrites; n != 1 {
			t.Errorf("a write fault on a hole made %d delayed writes, want 1 (the bitmap block)", n)
		}
		if after.Reads != before.Reads {
			t.Errorf("a write fault on a hole read %d blocks", after.Reads-before.Reads)
		}
		if tm := m.K.Tracer().Metrics(); tm.VMFaults != 1 || tm.VMPageins != 0 {
			t.Errorf("faults=%d pageins=%d, want 1 and 0", tm.VMFaults, tm.VMPageins)
		}
	})
}
