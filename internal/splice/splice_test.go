package splice

import (
	"bytes"
	"fmt"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	mach "kdp/internal/machine"
	"kdp/internal/sim"
)

const bsize = 8192

// machine is the test rig: disks with a filesystem each, mounted at
// /d0, /d1, …, built by internal/machine like every other machine
// (pair_test.go's hand-assembled one apart). The fields alias the
// assembled machine's; fsys fills in when mount runs.
type machine struct {
	k     *kernel.Kernel
	cache *buf.Cache
	disks []*disk.Disk
	fsys  []*fs.FS
	mount func(p *kernel.Proc) error
}

// assemble builds a rig over the given disks with a 400-buffer (3.2MB)
// cache; disk i mounts at /d<i> under the name <model>-<i>, since a
// machine's device names are unique.
func assemble(inodes int, params ...disk.Params) *machine {
	spec := mach.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 400}
	spec.Kernel.MaxRunTime = 3600 * sim.Second
	for i, dp := range params {
		dp.Name = fmt.Sprintf("%s-%d", dp.Name, i)
		spec.Disks = append(spec.Disks, mach.DiskSpec{Mount: fmt.Sprintf("/d%d", i), Params: dp, Inodes: inodes})
	}
	mm := mach.New(spec)
	return &machine{k: mm.K, cache: mm.Cache, disks: mm.Disks, fsys: mm.FSs, mount: mm.Boot}
}

// newMachine is the usual rig, mirroring the paper's experimental setup
// of copying between filesystems on different physical disks: two 16MB
// disks of one model.
func newMachine(t *testing.T, mkParams func(blocks int64, bs int) disk.Params) *machine {
	t.Helper()
	return assemble(64, mkParams(2048, bsize), mkParams(2048, bsize))
}

// boot mounts the filesystems from inside the init process.
func (m *machine) boot(t *testing.T, p *kernel.Proc) {
	t.Helper()
	if err := m.mount(p); err != nil {
		t.Fatalf("mount: %v", err)
	}
}

// run spawns fn as the only process and drives the machine.
func (m *machine) run(t *testing.T, fn func(p *kernel.Proc)) {
	t.Helper()
	m.k.Spawn("test", func(p *kernel.Proc) {
		if m.fsys[0] == nil {
			m.boot(t, p)
		}
		fn(p)
	})
	m.drive(t)
}

// drive runs the machine to idle and requires that it drained: no
// splice descriptor still live, no poller still registered.
func (m *machine) drive(t *testing.T) {
	t.Helper()
	if err := m.k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if err := m.k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// makeFile creates path with deterministic contents of n bytes.
func makeFile(t *testing.T, p *kernel.Proc, path string, n int, seed byte) []byte {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i>>8) ^ byte(i)*3 ^ seed
	}
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	for off := 0; off < n; off += bsize {
		end := off + bsize
		if end > n {
			end = n
		}
		if _, err := p.Write(fd, data[off:end]); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
	if err := p.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
	return data
}

// readAll reads the whole file back through the read() path.
func readAll(t *testing.T, p *kernel.Proc, path string) []byte {
	t.Helper()
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	var out []byte
	tmp := make([]byte, bsize)
	for {
		n, err := p.Read(fd, tmp)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if n == 0 {
			break
		}
		out = append(out, tmp[:n]...)
	}
	_ = p.Close(fd)
	return out
}

func TestSpliceWholeFileEOF(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const size = 20*bsize + 1234 // partial final block
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", size, 1)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		n, err := Splice(p, src, dst, EOF)
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		if n != size {
			t.Fatalf("moved %d bytes, want %d", n, size)
		}
		_ = p.Close(src)
		_ = p.Close(dst)
		got := readAll(t, p, "/d1/dst")
		if !bytes.Equal(got, want) {
			t.Fatal("spliced data differs from source")
		}
	})
}

func TestSplicePartialSizeAndOffsets(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const size = 10 * bsize
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", size, 2)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		// Two consecutive splices of half the file: offsets must
		// advance like read/write.
		n1, err := Splice(p, src, dst, 5*bsize)
		if err != nil || n1 != 5*bsize {
			t.Fatalf("first splice: n=%d err=%v", n1, err)
		}
		n2, err := Splice(p, src, dst, EOF)
		if err != nil || n2 != 5*bsize {
			t.Fatalf("second splice: n=%d err=%v", n2, err)
		}
		_ = p.Close(src)
		_ = p.Close(dst)
		got := readAll(t, p, "/d1/dst")
		if !bytes.Equal(got, want) {
			t.Fatal("offset-advancing splices corrupted data")
		}
	})
}

func TestSpliceSizeLargerThanFile(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", 3*bsize, 3)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		n, err := Splice(p, src, dst, 100*bsize)
		if err != nil || n != 3*bsize {
			t.Fatalf("splice: n=%d err=%v", n, err)
		}
		if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
			t.Fatal("data mismatch")
		}
	})
}

func TestSpliceZeroBytes(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", bsize, 4)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if n, err := Splice(p, src, dst, 0); n != 0 || err != nil {
			t.Fatalf("zero splice: n=%d err=%v", n, err)
		}
		// EOF splice of an empty source is also zero.
		empty, _ := p.Open("/d1/empty", kernel.OCreat|kernel.ORdOnly)
		if n, err := Splice(p, empty, dst, EOF); n != 0 || err != nil {
			t.Fatalf("empty-source splice: n=%d err=%v", n, err)
		}
	})
}

func TestSpliceAsyncSIGIO(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	const size = 8 * bsize
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", size, 5)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if _, err := p.Fcntl(src, kernel.FSetFL, kernel.FAsync); err != nil {
			t.Fatalf("fcntl: %v", err)
		}
		gotSig := false
		p.SetSignalHandler(kernel.SIGIO, func(p *kernel.Proc, s kernel.Signal) { gotSig = true })

		t0 := p.Now()
		n, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("async splice: %v", err)
		}
		if n != size {
			t.Fatalf("scheduled %d, want %d", n, size)
		}
		setupTime := p.Now().Sub(t0)
		if h.Done() {
			t.Fatal("async splice completed synchronously on a mechanical disk")
		}
		// The call must return long before the disk transfer could
		// finish (8 blocks at ~2MB/s is tens of ms; setup is sub-ms
		// compute plus metadata I/O).
		if setupTime > 60*sim.Millisecond {
			t.Fatalf("async splice blocked for %v", setupTime)
		}
		// The calling process continues running while I/O proceeds.
		p.Compute(10 * sim.Millisecond)
		// Wait for completion via pause()/SIGIO, as the paper's
		// example does.
		for !gotSig {
			p.Pause()
		}
		if !h.Done() {
			t.Fatal("SIGIO before completion")
		}
		if h.Moved() != size {
			t.Fatalf("moved %d, want %d", h.Moved(), size)
		}
		if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
			t.Fatal("async spliced data mismatch")
		}
	})
}

func TestSpliceBufferSharingNoCopies(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const blocks = 16
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 6)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		st := h.Stats()
		if st.Shared != blocks {
			t.Fatalf("shared = %d, want %d", st.Shared, blocks)
		}
		if st.Copied != 0 {
			t.Fatalf("copied = %d, want 0 (data aliasing must avoid copies)", st.Copied)
		}
	})
}

func TestSpliceNoShareAblationCopies(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const blocks = 16
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", blocks*bsize, 7)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{NoShare: true})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		st := h.Stats()
		if st.Copied != blocks || st.Shared != 0 {
			t.Fatalf("copied=%d shared=%d, want %d/0", st.Copied, st.Shared, blocks)
		}
		if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
			t.Fatal("no-share splice corrupted data")
		}
	})
}

func TestSpliceFlowControlWatermarks(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	const blocks = 64
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 8)
		// Cold cache, as the experiments require.
		if err := m.cache.InvalidateDev(p.Ctx(), m.disks[0]); err != nil {
			t.Fatal(err)
		}
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		st := h.Stats()
		// Reads are issued in refill batches of at most 5; pending
		// reads can reach watermark-1 + batch = 2 + 5 = 7 but no more.
		if st.PeakReads > DefaultReadWatermark-1+DefaultRefillBatch {
			t.Fatalf("peak pending reads = %d, exceeds flow-control bound", st.PeakReads)
		}
		if st.PeakWrites > DefaultWriteWatermark-1+DefaultRefillBatch {
			t.Fatalf("peak pending writes = %d, exceeds flow-control bound", st.PeakWrites)
		}
		if st.ReadsIssued != blocks || st.WritesIssued != blocks {
			t.Fatalf("reads=%d writes=%d, want %d each", st.ReadsIssued, st.WritesIssued, blocks)
		}
	})
}

func TestSpliceUsesCalloutList(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const blocks = 8
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 9)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		// Every block's write side must have been dispatched through
		// the callout list (the paper's decoupling mechanism).
		if got := h.Stats().Callouts; got != blocks {
			t.Fatalf("callout dispatches = %d, want %d", got, blocks)
		}
	})
}

func TestSpliceSourceHoleWritesZeros(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		// File with a hole in the middle: block 0 and 2 written.
		fd, _ := p.Open("/d0/sparse", kernel.OCreat|kernel.ORdWr)
		blk := make([]byte, bsize)
		for i := range blk {
			blk[i] = 0xAA
		}
		_, _ = p.Write(fd, blk)
		_, _ = p.Lseek(fd, 2*bsize, kernel.SeekSet)
		_, _ = p.Write(fd, blk)
		_ = p.Close(fd)

		src, _ := p.Open("/d0/sparse", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		n, err := Splice(p, src, dst, EOF)
		if err != nil || n != 3*bsize {
			t.Fatalf("splice: n=%d err=%v", n, err)
		}
		got := readAll(t, p, "/d1/dst")
		for i := 0; i < bsize; i++ {
			if got[i] != 0xAA || got[2*bsize+i] != 0xAA {
				t.Fatal("data blocks corrupted")
			}
			if got[bsize+i] != 0 {
				t.Fatalf("hole byte %d = %#x, want 0", i, got[bsize+i])
			}
		}
	})
}

func TestSpliceUnalignedOffsetRejected(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 2*bsize, 10)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Lseek(src, 100, kernel.SeekSet)
		if _, err := Splice(p, src, dst, EOF); err != kernel.ErrInval {
			t.Fatalf("unaligned file-file splice: %v, want ErrInval", err)
		}
	})
}

func TestSpliceBadDescriptor(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", bsize, 11)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		if _, err := Splice(p, src, 99, EOF); err != kernel.ErrBadFD {
			t.Fatalf("bad dst fd: %v, want ErrBadFD", err)
		}
		if _, err := Splice(p, 99, src, EOF); err != kernel.ErrBadFD {
			t.Fatalf("bad src fd: %v, want ErrBadFD", err)
		}
		if _, err := Splice(p, src, src, -7); err != kernel.ErrInval {
			t.Fatalf("negative size: %v, want ErrInval", err)
		}
	})
}

func TestSpliceInterruptedBySignal(t *testing.T) {
	m := newMachine(t, disk.RZ56) // slow disk: plenty of time to interrupt
	const size = 128 * bsize      // 1MB: ~1s on an RZ56
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", size, 12)
		if err := m.cache.InvalidateDev(p.Ctx(), m.disks[0]); err != nil {
			t.Fatal(err)
		}
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		p.SetSignalHandler(kernel.SIGALRM, func(*kernel.Proc, kernel.Signal) {})
		p.SetITimer(50*sim.Millisecond, 0)
		n, err := Splice(p, src, dst, EOF)
		if err != kernel.ErrIntr {
			t.Fatalf("interrupted splice: err=%v, want ErrIntr", err)
		}
		if n <= 0 || n >= size {
			t.Fatalf("partial count = %d, want in (0,%d)", n, size)
		}
		// The moved prefix must be intact.
		got := readAll(t, p, "/d1/dst")
		want := makeRef(size, 12)
		if int64(len(got)) < n {
			t.Fatalf("destination shorter (%d) than moved count %d", len(got), n)
		}
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatal("moved prefix corrupted")
		}
	})
}

// makeRef regenerates the deterministic pattern makeFile writes.
func makeRef(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i>>8) ^ byte(i)*3 ^ seed
	}
	return data
}

func TestSpliceConcurrentTransfers(t *testing.T) {
	// Two simultaneous splices over the same devices must both
	// complete correctly — "several buffers may be in transit
	// simultaneously and need not be maintained in sequential order."
	m := newMachine(t, disk.RAMDisk)
	const size = 12 * bsize
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/a", size, 20)
		makeFile(t, p, "/d0/b", size, 21)
		srcA, _ := p.Open("/d0/a", kernel.ORdOnly)
		srcB, _ := p.Open("/d0/b", kernel.ORdOnly)
		dstA, _ := p.Open("/d1/a", kernel.OCreat|kernel.OWrOnly)
		dstB, _ := p.Open("/d1/b", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(srcA, kernel.FSetFL, kernel.FAsync)
		_, _ = p.Fcntl(srcB, kernel.FSetFL, kernel.FAsync)
		_, hA, err := SpliceOpts(p, srcA, dstA, EOF, Options{})
		if err != nil {
			t.Fatalf("splice A: %v", err)
		}
		_, hB, err := SpliceOpts(p, srcB, dstB, EOF, Options{})
		if err != nil {
			t.Fatalf("splice B: %v", err)
		}
		if err := hA.Wait(p); err != nil {
			t.Fatalf("wait A: %v", err)
		}
		if err := hB.Wait(p); err != nil {
			t.Fatalf("wait B: %v", err)
		}
		if !bytes.Equal(readAll(t, p, "/d1/a"), makeRef(size, 20)) {
			t.Fatal("transfer A corrupted")
		}
		if !bytes.Equal(readAll(t, p, "/d1/b"), makeRef(size, 21)) {
			t.Fatal("transfer B corrupted")
		}
	})
}

func TestSpliceSurvivesCallerExit(t *testing.T) {
	// An async splice continues after the calling process exits: the
	// descriptor, not the process context, owns the transfer.
	m := newMachine(t, disk.RZ58)
	const size = 16 * bsize
	var want []byte
	m.run(t, func(p *kernel.Proc) {
		want = makeFile(t, p, "/d0/src", size, 22)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		if _, _, err := SpliceOpts(p, src, dst, EOF, Options{}); err != nil {
			t.Fatalf("splice: %v", err)
		}
		// Exit immediately; the kernel hold keeps the machine running.
	})
	// After Run returns, all spliced data must be on the media.
	m.k.Spawn("verify", func(p *kernel.Proc) {
		got := readAll(t, p, "/d1/dst")
		if !bytes.Equal(got, want) {
			t.Error("data incomplete after caller exit")
		}
	})
	m.drive(t)
}

func TestSpliceOnMechanicalDisksDataIntegrity(t *testing.T) {
	for _, mk := range []func(int64, int) disk.Params{disk.RZ56, disk.RZ58} {
		m := newMachine(t, mk)
		const size = 32*bsize + 77
		m.run(t, func(p *kernel.Proc) {
			want := makeFile(t, p, "/d0/src", size, 23)
			if err := m.cache.InvalidateDev(p.Ctx(), m.disks[0]); err != nil {
				t.Fatal(err)
			}
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			n, err := Splice(p, src, dst, EOF)
			if err != nil || n != size {
				t.Fatalf("splice: n=%d err=%v", n, err)
			}
			if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
				t.Fatal("mechanical-disk splice corrupted data")
			}
		})
	}
}

func TestSpliceCustomWatermarks(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const blocks = 32
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 24)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{
			ReadWatermark: 1, WriteWatermark: 1, RefillBatch: 1,
		})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		st := h.Stats()
		if st.PeakReads > 1 || st.PeakWrites > 1 {
			t.Fatalf("watermark-1 splice had %d/%d in flight", st.PeakReads, st.PeakWrites)
		}
		if st.BytesMoved != blocks*bsize {
			t.Fatalf("moved %d", st.BytesMoved)
		}
	})
}

func TestSpliceThroughputBeatsReadWriteOnRAMDisk(t *testing.T) {
	// The headline result, in miniature: on a fast device, the
	// in-kernel path must outperform the read/write path.
	const size = 64 * bsize

	elapsedSplice := func() sim.Duration {
		m := newMachine(t, disk.RAMDisk)
		var el sim.Duration
		m.run(t, func(p *kernel.Proc) {
			makeFile(t, p, "/d0/src", size, 30)
			_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			t0 := p.Now()
			if _, err := Splice(p, src, dst, EOF); err != nil {
				t.Fatalf("splice: %v", err)
			}
			el = p.Now().Sub(t0)
		})
		return el
	}()

	elapsedRW := func() sim.Duration {
		m := newMachine(t, disk.RAMDisk)
		var el sim.Duration
		m.run(t, func(p *kernel.Proc) {
			makeFile(t, p, "/d0/src", size, 30)
			_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			t0 := p.Now()
			tmp := make([]byte, bsize)
			for {
				n, err := p.Read(src, tmp)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if n == 0 {
					break
				}
				if _, err := p.Write(dst, tmp[:n]); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			if err := p.Fsync(dst); err != nil {
				t.Fatalf("fsync: %v", err)
			}
			el = p.Now().Sub(t0)
		})
		return el
	}()

	if elapsedSplice >= elapsedRW {
		t.Fatalf("splice (%v) not faster than read/write (%v) on RAM disk", elapsedSplice, elapsedRW)
	}
}
