package fs

import (
	"bytes"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// newSlowRig formats a filesystem on an RZ58 model so device latency
// is visible: readaheads stay in flight long enough to race demand
// reads, budget limits, and crashes.
func newSlowRig(t *testing.T, blocks int64) *rig {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 1200 * sim.Second
	k := kernel.New(cfg)
	c := buf.NewCache(k, 64, testBlockSize)
	d := disk.New(k, disk.RZ58(blocks, testBlockSize))
	d.SetCache(c)
	if _, err := Mkfs(d, 128); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	return &rig{k: k, c: c, d: d}
}

// makeColdFile writes an nblocks-block file, forces it to the device,
// and invalidates the cache so the next read is cold. Returns the file
// contents.
func makeColdFile(t *testing.T, p *kernel.Proc, f *FS, path string, nblocks int) []byte {
	t.Helper()
	ctx := p.Ctx()
	data := pattern(nblocks*testBlockSize, 5)
	fl, err := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := fl.Write(ctx, data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := fl.(*File).Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := f.cache.InvalidateDev(ctx, f.dev); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	return data
}

// TestSequentialReadGrowsWindow: a block-by-block scan is detected as
// sequential, the window grows, speculative fetches are issued and all
// of them are consumed as hits (RAM disk: readahead completes inline,
// so every speculated block is warm by the time the scan reaches it).
func TestSequentialReadGrowsWindow(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(8)
		const nblocks = 16
		want := makeColdFile(t, p, f, "/seq", nblocks)
		fl, err := f.OpenFile(ctx, "/seq", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got := make([]byte, 0, len(want))
		chunk := make([]byte, testBlockSize)
		off := int64(0)
		for {
			n, err := fl.Read(ctx, chunk, off)
			if err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
			if n == 0 {
				break
			}
			got = append(got, chunk[:n]...)
			off += int64(n)
		}
		if !bytes.Equal(got, want) {
			t.Error("sequential read returned wrong data")
		}
		if w := fl.(*File).Inode().raWindow; w != 8 {
			t.Errorf("window after full scan = %d, want cap 8", w)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		st := f.cache.Stats()
		if st.RaIssued == 0 || st.RaHits == 0 {
			t.Errorf("RaIssued=%d RaHits=%d, want both > 0", st.RaIssued, st.RaHits)
		}
		if st.RaWaste != 0 {
			t.Errorf("RaWaste = %d, want 0 for a clean scan", st.RaWaste)
		}
		if err := f.cache.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
	})
}

// TestReadaheadStopsAtEOF: the window is clamped at the file's last
// data block, so a scan reaching EOF mid-window never speculates past
// the end (which would waste budget on blocks of other files).
func TestReadaheadStopsAtEOF(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(8)
		// 2.5 blocks: last data block is 2, reached while the window
		// still wants to run ahead.
		data := pattern(2*testBlockSize+testBlockSize/2, 3)
		fl, err := f.OpenFile(ctx, "/short", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := fl.Write(ctx, data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := f.cache.InvalidateDev(ctx, f.dev); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		got := make([]byte, len(data))
		off := int64(0)
		for off < int64(len(data)) {
			n, err := fl.Read(ctx, got[off:], off)
			if err != nil || n == 0 {
				t.Fatalf("read at %d: n=%d err=%v", off, n, err)
			}
			off += int64(n)
		}
		if !bytes.Equal(got, data) {
			t.Error("short-file read returned wrong data")
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		st := f.cache.Stats()
		// Only blocks 1 and 2 can ever be speculated; nothing past EOF.
		if st.RaIssued > 2 {
			t.Errorf("RaIssued = %d, want <= 2 (no speculation past EOF)", st.RaIssued)
		}
		if st.RaWaste != 0 {
			t.Errorf("RaWaste = %d, want 0", st.RaWaste)
		}
		if err := f.cache.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
	})
}

// TestRandomAccessCollapsesWindow: seeks never speculate — each
// non-contiguous read collapses the window to zero and issues no
// readahead.
func TestRandomAccessCollapsesWindow(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(8)
		want := makeColdFile(t, p, f, "/rand", 8)
		fl, err := f.OpenFile(ctx, "/rand", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		chunk := make([]byte, testBlockSize)
		// Offsets chosen so no read starts where the previous ended
		// (and the first is nonzero, since a fresh inode expects 0).
		for _, blk := range []int64{3, 6, 1, 4, 0} {
			off := blk * testBlockSize
			n, err := fl.Read(ctx, chunk, off)
			if err != nil || n != testBlockSize {
				t.Fatalf("read blk %d: n=%d err=%v", blk, n, err)
			}
			if !bytes.Equal(chunk, want[off:off+testBlockSize]) {
				t.Errorf("blk %d: wrong data", blk)
			}
			if w := fl.(*File).Inode().raWindow; w != 0 {
				t.Errorf("window after random read of blk %d = %d, want 0", blk, w)
			}
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if st := f.cache.Stats(); st.RaIssued != 0 {
			t.Errorf("RaIssued = %d, want 0 for random access", st.RaIssued)
		}
	})
}

// TestSeekAfterScanCollapsesThenRegrows: a sequential run grows the
// window, a seek collapses it, and a new sequential run from the seek
// point starts over at one block.
func TestSeekAfterScanCollapsesThenRegrows(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(8)
		makeColdFile(t, p, f, "/mix", 16)
		fl, err := f.OpenFile(ctx, "/mix", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		chunk := make([]byte, testBlockSize)
		mustRead := func(off int64) {
			if _, err := fl.Read(ctx, chunk, off); err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
		}
		ip := fl.(*File).Inode()
		mustRead(0)
		mustRead(1 * testBlockSize)
		mustRead(2 * testBlockSize)
		if ip.raWindow < 2 {
			t.Fatalf("window after 3 sequential reads = %d, want >= 2", ip.raWindow)
		}
		mustRead(10 * testBlockSize) // seek
		if ip.raWindow != 0 || ip.raAhead != 0 {
			t.Errorf("window/ahead after seek = %d/%d, want 0/0", ip.raWindow, ip.raAhead)
		}
		mustRead(11 * testBlockSize) // sequential again
		if ip.raWindow != 1 {
			t.Errorf("window after resuming scan = %d, want 1 (fresh start)", ip.raWindow)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestWindowLargerThanBudget: a 32-block window against the rig's
// 64-buffer pool's budget (nbuf/8 = 8 in flight) must never exceed the
// cap — issue stops at the first refusal and the scan still completes
// correctly.
func TestWindowLargerThanBudget(t *testing.T) {
	r := newSlowRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(32)
		const budget = 64 / 8
		want := makeColdFile(t, p, f, "/big", 40)
		fl, err := f.OpenFile(ctx, "/big", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got := make([]byte, 0, len(want))
		chunk := make([]byte, testBlockSize)
		off := int64(0)
		for {
			n, err := fl.Read(ctx, chunk, off)
			if err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
			if n == 0 {
				break
			}
			if pend := f.cache.ReadaheadPending(); pend > budget {
				t.Fatalf("pending readaheads %d exceed budget %d", pend, budget)
			}
			got = append(got, chunk[:n]...)
			off += int64(n)
		}
		if !bytes.Equal(got, want) {
			t.Error("scan with clamped window returned wrong data")
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if st := f.cache.Stats(); st.RaIssued == 0 {
			t.Error("no readaheads issued")
		}
		if err := f.cache.CheckInvariants(); err != nil {
			t.Errorf("cache invariants: %v", err)
		}
		if err := r.d.CheckInvariants(); err != nil {
			t.Errorf("disk invariants: %v", err)
		}
	})
}

// TestReadaheadRacingCrash: speculative reads in flight when the
// device crashes are dropped with an error, must drain the in-flight
// budget, count as waste, and must NOT latch a device write error
// (they were reads). The durable file data stays readable afterwards.
func TestReadaheadRacingCrash(t *testing.T) {
	r := newSlowRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		f.SetReadahead(8)
		want := makeColdFile(t, p, f, "/race", 16)
		fl, err := f.OpenFile(ctx, "/race", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		chunk := make([]byte, testBlockSize)
		// Two sequential reads: the second grows the window and leaves
		// speculative fetches in flight on the slow device.
		for _, off := range []int64{0, testBlockSize} {
			if _, err := fl.Read(ctx, chunk, off); err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
		}
		if f.cache.ReadaheadPending() == 0 {
			t.Fatal("no readaheads in flight; race setup broken")
		}
		dropped := r.d.Crash()
		// Dropped requests complete with errors at interrupt level; the
		// one past the point of no return finishes normally. Wait for
		// the dust to settle.
		for f.cache.ReadaheadPending() > 0 || r.d.Busy() {
			p.SleepFor(5 * sim.Millisecond)
		}
		st := f.cache.Stats()
		if dropped > 0 && st.RaWaste == 0 {
			t.Errorf("dropped %d requests but RaWaste = 0", dropped)
		}
		// A failed readahead is a failed *read*: it must not latch the
		// device write error that fsync reports.
		if err := f.cache.WriteError(f.dev); err != nil {
			t.Errorf("crashed readahead latched a write error: %v", err)
		}
		if err := f.cache.CheckInvariants(); err != nil {
			t.Errorf("cache invariants after device crash: %v", err)
		}
		if err := r.d.CheckInvariants(); err != nil {
			t.Errorf("disk invariants after device crash: %v", err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Complete the crash model on the cache side and re-read: the
		// fsynced data survived.
		f.cache.Crash(f.dev)
		if pend := f.cache.ReadaheadPending(); pend != 0 {
			t.Errorf("pending after cache crash = %d, want 0", pend)
		}
		fl2, err := f.OpenFile(ctx, "/race", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := make([]byte, len(want))
		off := int64(0)
		for off < int64(len(want)) {
			n, err := fl2.Read(ctx, got[off:], off)
			if err != nil || n == 0 {
				t.Fatalf("re-read at %d: n=%d err=%v", off, n, err)
			}
			off += int64(n)
		}
		if !bytes.Equal(got, want) {
			t.Error("durable data wrong after crash")
		}
		if err := fl2.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestClusteredFlushAcrossFaultBoundary: fsync of a multi-block file
// clusters the adjacent dirty blocks; a one-shot write fault inside
// the cluster fails the sync without corrupting cache state, and a
// retry lands everything.
func TestClusteredFlushAcrossFaultBoundary(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		data := pattern(4*testBlockSize, 7)
		fl, err := f.OpenFile(ctx, "/clu", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := fl.Write(ctx, data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		ip := fl.(*File).Inode()
		for i := 1; i < 4; i++ {
			if ip.direct[i] != ip.direct[i-1]+1 {
				t.Fatalf("fresh-fs allocation not contiguous: %v", ip.direct[:4])
			}
		}
		// Fault the write of a block in the middle of the cluster.
		r.k.Faults().Arm(kernel.FaultArm{Site: r.d.WriteSite(), Every: 1, Match: int64(ip.direct[2]), Count: 1, Quiet: true})
		if err := fl.(*File).Sync(ctx); err == nil {
			t.Fatal("fsync across the fault succeeded, want error")
		}
		if err := f.cache.CheckInvariants(); err != nil {
			t.Errorf("cache invariants after faulted flush: %v", err)
		}
		if err := r.d.CheckInvariants(); err != nil {
			t.Errorf("disk invariants after faulted flush: %v", err)
		}
		st := f.cache.Stats()
		if st.ClusterRuns == 0 || st.ClusterBlocks < 2 {
			t.Errorf("ClusterRuns=%d ClusterBlocks=%d, want a run of the adjacent dirty blocks",
				st.ClusterRuns, st.ClusterBlocks)
		}
		// The fault was one-shot: rewrite the failed block and sync
		// again; everything must now be durable.
		if _, err := fl.Write(ctx, data[2*testBlockSize:3*testBlockSize], 2*testBlockSize); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("fsync retry: %v", err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := f.cache.InvalidateDev(ctx, f.dev); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		fl2, err := f.OpenFile(ctx, "/clu", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := make([]byte, len(data))
		off := int64(0)
		for off < int64(len(data)) {
			n, err := fl2.Read(ctx, got[off:], off)
			if err != nil || n == 0 {
				t.Fatalf("read back at %d: n=%d err=%v", off, n, err)
			}
			off += int64(n)
		}
		if !bytes.Equal(got, data) {
			t.Error("data wrong after faulted-then-retried sync")
		}
		if err := fl2.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
