package vm_test

import (
	"bytes"
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/splice"
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

// staleVolume builds a one-disk machine of cacheBufs buffers (and so
// of a pool an eighth that size) mounted at /v and runs body on it after filling the volume with a file of 0xA5 bytes, fsyncing and
// unlinking it: the blocks return to the bitmap un-zeroed, and their
// buffers stay in the cache.
func staleVolume(t *testing.T, cacheBufs int, body func(m *machine.Machine, p *kernel.Proc)) *machine.Machine {
	t.Helper()
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: cacheBufs,
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
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
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
	m := staleVolume(t, 16, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapFresh(t, p)
		// Two frames, four pages: loading pages 1 and 3 makes the clock
		// evict 0 and 2, starting their writes, and they fault back in.
		got := make([]byte, freshPages*bsize)
		for _, pg := range []int64{1, 3, 0, 2} {
			if err := p.MemRead(addr+pg*bsize, got[pg*bsize:(pg+1)*bsize]); err != nil {
				t.Fatalf("load page %d: %v", pg, err)
			}
		}
		checkFile(t, "loads after eviction", got, freshPages, 0, 2)
	})
	if n := m.K.Tracer().Metrics().VMPageouts; n != 2 {
		t.Errorf("pageouts = %d, want 2 (pages 0 and 2 born dirty)", n)
	}
}

func TestFreshBlockUnmappedWithoutMsync(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
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
// fsync must find the page's buffer dirty and write its zeros — a clean
// one there would leave the file pointing at the previous owner's bytes
// on the platter, for whoever reads it after a crash.
func TestFreshPageBornDirty(t *testing.T) {
	var faulted, synced int // wait channels
	m := staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
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
				t.Errorf("the fault made %d pageouts, want 1 (its zero page, born dirty)", n)
			}
			if b := m.Cache.Peek(m.Disks[0], blockOf(t, q, qfd, 0)); b == nil || b.Flags&buf.BDelwri != 0 {
				t.Errorf("fsync between the fault and the store left the page unwritten: %v", b)
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
		t.Errorf("pageouts = %d, want 2 (the zero page's birth, the store into it once fsync cleaned it)", n)
	}
}

// TestStoreToResidentHoleGetsABlock: a hole loaded through a writable
// shared mapping is a resident page without a block; the store that
// follows must give it one rather than dirty a page that has nowhere to
// go.
func TestStoreToResidentHoleGetsABlock(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
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
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 512} // a 64-frame pool
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

// TestWriteFaultReadsNothingWritesOnce: a store into a hole reads no
// block, and the block it is given reaches the platter once — msync
// writes it, and neither the unmap nor a sync after it writes it again.
func TestWriteFaultReadsNothingWritesOnce(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		_, addr := mapNew(t, p, 1)
		rec := &blockWrites{dev: m.Disks[0].DevName(), writes: map[int64]int{}}
		tr := m.K.StartTrace(rec)
		reads := tr.Metrics().EventCount[trace.KindDiskRead]
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		if n := tr.Metrics().EventCount[trace.KindDiskRead] - reads; n != 0 {
			t.Errorf("a write fault on a hole read %d blocks", n)
		}
		if err := p.Msync(addr); err != nil {
			t.Fatalf("msync: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if err := m.FSs[0].SyncAll(p.Ctx()); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if tm := tr.Metrics(); tm.VMFaults != 1 || tm.VMPageins != 0 || len(rec.pageouts) != 1 {
			t.Fatalf("faults=%d pageins=%d pageouts=%d, want 1, 0 and 1", tm.VMFaults, tm.VMPageins, len(rec.pageouts))
		}
		if n := rec.writes[rec.pageouts[0]]; n != 1 {
			t.Errorf("the stored block was written %d times, want once", n)
		}
	})
}

// blockOf returns the physical block of logical block lblk of the file
// open on fd.
func blockOf(t *testing.T, p *kernel.Proc, fd int, lblk int64) int64 {
	t.Helper()
	f, err := p.FD(fd)
	if err != nil {
		t.Fatalf("fd: %v", err)
	}
	blks, err := f.Ops().(*fs.File).SpliceMapRead(p.Ctx(), lblk, lblk+1)
	if err != nil || blks[0] == 0 {
		t.Fatalf("block table: %v %v", blks, err)
	}
	return int64(blks[0])
}

// TestMappedStoresAndWritesAreCoherent: a page is its block's buffer, so
// a store through a shared mapping is read()'s data before any msync or
// unmap, and a write() to a resident page is the mapping's next load.
func TestMappedStoresAndWritesAreCoherent(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		fd, addr := mapNew(t, p, 2)
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		got := make([]byte, len(stored))
		if _, err := p.Lseek(fd, storeOff, kernel.SeekSet); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(fd, got); err != nil || !bytes.Equal(got, stored) {
			t.Errorf("read() before msync = %q (%v), want the mapped store", got, err)
		}
		if err := p.MemRead(addr+bsize, got); err != nil { // page 1 resident: a hole
			t.Fatalf("load: %v", err)
		}
		if err := p.MemWrite(addr+bsize, []byte{1}); err != nil { // and now with a block
			t.Fatalf("store: %v", err)
		}
		if _, err := p.Lseek(fd, bsize+storeOff, kernel.SeekSet); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, stored); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := p.MemRead(addr+bsize+storeOff, got); err != nil || !bytes.Equal(got, stored) {
			t.Errorf("mapped load after write() = %q (%v), want the written bytes", got, err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	})
}

// TestEvictionStartsTheWrite: on a 2-page pool the clock evicting a
// dirty page starts its block's write at once — the disk.write comes
// before any msync, unmap or sync.
func TestEvictionStartsTheWrite(t *testing.T) {
	staleVolume(t, 16, func(m *machine.Machine, p *kernel.Proc) {
		fd, addr := mapNew(t, p, 3)
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		blk := blockOf(t, p, fd, 0)
		rec := &blockWrites{dev: m.Disks[0].DevName(), writes: map[int64]int{}}
		m.K.StartTrace(rec)
		for _, pg := range []int64{1, 2} { // two loads evict page 0
			if err := p.MemRead(addr+pg*bsize, make([]byte, 1)); err != nil {
				t.Fatalf("load page %d: %v", pg, err)
			}
		}
		p.SleepFor(10 * sim.Millisecond) // the RAM disk's write completes
		if rec.writes[blk] != 1 {
			t.Errorf("evicting dirty page 0 wrote its block %d times before any msync, want once", rec.writes[blk])
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	})
}

// TestFilePageIsTheBuffer: a resident file page's memory is the very
// array of its block's cache buffer — one copy, not two.
func TestFilePageIsTheBuffer(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		writeFile(t, p, "/v/one", pattern(bsize, 5))
		fd, err := p.Open("/v/one", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemRead(addr, make([]byte, 1)); err != nil {
			t.Fatalf("load: %v", err)
		}
		page := m.Pool.PageData(p, addr)
		b := m.Cache.Peek(m.Disks[0], blockOf(t, p, fd, 0))
		if page == nil || b == nil || &page[0] != &b.Data[0] {
			t.Error("the resident page is not its block's cache buffer")
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		p.Close(fd)
	})
}

// TestSpliceIntoMappedBlock is the splice rule: one process maps a file
// and loads a page, another splices into that block. The splice writes
// through the held buffer, so the mapping's next load and read() both
// return the spliced bytes, and the platter does too.
func TestSpliceIntoMappedBlock(t *testing.T) {
	spliced := pattern(bsize, 9)
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		writeFile(t, p, "/v/dst", pattern(bsize, 1))
		writeFile(t, p, "/v/src", spliced)
		fd, err := p.Open("/v/dst", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemRead(addr, make([]byte, 1)); err != nil {
			t.Fatalf("load: %v", err)
		}
		var done int
		m.K.Spawn("splicer", func(q *kernel.Proc) {
			src, err := q.Open("/v/src", kernel.ORdOnly)
			if err != nil {
				t.Errorf("open src: %v", err)
			}
			dst, err := q.Open("/v/dst", kernel.OWrOnly)
			if err != nil {
				t.Errorf("open dst: %v", err)
			}
			if n, err := splice.Splice(q, src, dst, splice.EOF); n != bsize || err != nil {
				t.Errorf("splice: %d bytes, %v", n, err)
			}
			q.Close(src)
			q.Close(dst)
			m.K.Wakeup(&done)
		})
		_ = p.Sleep(&done, kernel.PSLEP)
		got := make([]byte, bsize)
		if err := p.MemRead(addr, got); err != nil || !bytes.Equal(got, spliced) {
			t.Errorf("mapped load after the splice: %v, spliced bytes seen %v", err, bytes.Equal(got, spliced))
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		p.Close(fd)
		if !bytes.Equal(readFile(t, p, "/v/dst"), spliced) {
			t.Error("read() after the splice does not return the spliced bytes")
		}
		if err := m.Cache.InvalidateDev(p.Ctx(), m.Disks[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, p, "/v/dst"), spliced) {
			t.Error("the platter does not hold the spliced bytes")
		}
	})
}

// TestSpliceStagesIntoMappedBlock is the splice rule on the staging
// path: a Source's bytes are copied into the destination block's buffer,
// which here is a mapped page. Its short final block is still written
// whole — the page's tail is valid — and the buffer keeps its full
// count, so a store through the mapping past the spliced bytes, made
// after the splice, reaches the platter with the next msync.
func TestSpliceStagesIntoMappedBlock(t *testing.T) {
	const n = 1000 // < storeOff
	old, spliced := pattern(bsize, 1), pattern(n, 9)
	want := append(append([]byte{}, spliced...), old[n:]...)
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		dev.NewPipe(m.K, "/dev/pipe", 2*bsize)
		writeFile(t, p, "/v/dst", old)
		fd, err := p.Open("/v/dst", kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemRead(addr, make([]byte, 1)); err != nil {
			t.Fatalf("load: %v", err)
		}
		var done int
		m.K.Spawn("splicer", func(q *kernel.Proc) {
			pin, err := q.Open("/dev/pipe", kernel.OWrOnly)
			if err != nil {
				t.Errorf("open pipe: %v", err)
			}
			pout, _ := q.Open("/dev/pipe", kernel.ORdOnly)
			dst, err := q.Open("/v/dst", kernel.OWrOnly)
			if err != nil {
				t.Errorf("open dst: %v", err)
			}
			if _, err := q.Write(pin, spliced); err != nil {
				t.Errorf("write pipe: %v", err)
			}
			if got, err := splice.Splice(q, pout, dst, n); got != n || err != nil {
				t.Errorf("splice: %d bytes, %v", got, err)
			}
			q.Close(pin)
			q.Close(pout)
			q.Close(dst)
			m.K.Wakeup(&done)
		})
		_ = p.Sleep(&done, kernel.PSLEP)
		got := make([]byte, bsize)
		if err := p.MemRead(addr, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("mapped load after the splice: %v, spliced bytes and old tail seen %v", err, bytes.Equal(got, want))
		}
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		copy(want[storeOff:], stored)
		if err := p.Msync(addr); err != nil {
			t.Fatalf("msync: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		p.Close(fd)
		if err := m.Cache.InvalidateDev(p.Ctx(), m.Disks[0]); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, p, "/v/dst"); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("the platter differs from the spliced bytes, old tail and store at byte %d", i)
		}
	})
}

// TestFreshPageOverAZeroPlatterEntry: a fresh page's buffer starts on the
// cache's zero block, and a platter entry can be the zero block too — a
// fresh page written back before any store leaves it there. When the
// allocator comes back to such a block, the new page's delayed write
// holds the very block its platter entry holds, which buf-block-owned
// allows for the zero block alone: nothing stores into it. Each round
// faults a page of a truncated file, writes it back unstored and
// truncates again, until a fault lands on a block an earlier round left
// on the zero block.
func TestFreshPageOverAZeroPlatterEntry(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		zero := &m.Cache.ZeroBlock()[0]
		for round := 0; ; round++ {
			if round == 200 {
				t.Fatal("no fault landed on a block whose platter entry is the zero block")
			}
			fd, addr := mapNew(t, p, 1)
			if err := m.Pool.WriteFault(p, addr+storeOff); err != nil {
				t.Fatalf("write fault: %v", err)
			}
			blk := blockOf(t, p, fd, 0)
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			b := m.Cache.Peek(m.Disks[0], blk)
			if b == nil || b.Flags&buf.BDelwri == 0 || &b.Data[0] != zero {
				t.Fatalf("round %d: a fresh page's buffer is not a delayed write on the zero block: %v", round, b)
			}
			onZero := m.Disks[0].PlatterBlock(blk) != nil && &m.Disks[0].PlatterBlock(blk).Bytes[0] == zero
			if err := p.Msync(addr); err != nil {
				t.Fatalf("msync: %v", err)
			}
			if err := p.Munmap(addr); err != nil {
				t.Fatalf("munmap: %v", err)
			}
			_ = p.Close(fd)
			if onZero {
				break
			}
			fd, err := p.Open("/v/new", kernel.OTrunc|kernel.ORdWr)
			if err != nil {
				t.Fatalf("truncate: %v", err)
			}
			_ = p.Close(fd)
		}
		checkFile(t, "read after the last round", readFile(t, p, "/v/new"), 1)
	})
}
