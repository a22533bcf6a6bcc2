package fs

import (
	"bytes"
	"hash/fnv"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// readDinodeRaw decodes inode ino straight off the media, bypassing
// the cache (tests must InvalidateDev before mutating raw media).
func (r *rig) readDinodeRaw(ino uint32) dinode {
	sb := superRaw(r)
	raw := make([]byte, sb.BlockSize)
	per := int(sb.BlockSize) / InodeSize
	r.d.ReadRaw(int64(sb.ITableStart)+int64(int(ino)/per), raw)
	var di dinode
	di.decode(raw[(int(ino)%per)*InodeSize:])
	return di
}

// writeDinodeRaw encodes inode ino straight onto the media.
func (r *rig) writeDinodeRaw(ino uint32, di dinode) {
	sb := superRaw(r)
	raw := make([]byte, sb.BlockSize)
	per := int(sb.BlockSize) / InodeSize
	blk := int64(sb.ITableStart) + int64(int(ino)/per)
	r.d.ReadRaw(blk, raw)
	di.encode(raw[(int(ino)%per)*InodeSize:])
	r.d.WriteRaw(blk, raw)
}

// superRaw decodes the superblock off the media.
func superRaw(r *rig) Superblock {
	raw := make([]byte, testBlockSize)
	r.d.ReadRaw(0, raw)
	var sb Superblock
	if err := sb.decode(raw); err != nil {
		panic(err)
	}
	return sb
}

// flipBitmapRaw flips one allocation bit on the media.
func (r *rig) flipBitmapRaw(blk uint32, set bool) {
	sb := superRaw(r)
	raw := make([]byte, sb.BlockSize)
	per := int(sb.BlockSize) * 8
	bmBlk := int64(sb.BitmapStart) + int64(int(blk)/per)
	r.d.ReadRaw(bmBlk, raw)
	bit := int(blk) % per
	if set {
		raw[bit/8] |= 1 << uint(bit%8)
	} else {
		raw[bit/8] &^= 1 << uint(bit%8)
	}
	r.d.WriteRaw(bmBlk, raw)
}

// evictedWriteRig writes one block of /f as a delayed write, arms a
// one-shot media error on it, then writes more blocks of /g than the
// cache holds: getblk recycles the dirty buffer and pushes it out with
// Bawrite, so the write fails at interrupt level with no process
// waiting on it. It returns /f and /g, both still open: the latch is
// per device, so the first of them to sync or close reports it.
func evictedWriteRig(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) (fl, g kernel.FileOps) {
	t.Helper()
	fl, err := f.OpenFile(ctx, "/f", kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := fl.Write(ctx, pattern(testBlockSize, 9), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	blk := fl.(*File).Inode().direct[0]
	r.k.Faults().Arm(kernel.FaultArm{Site: r.d.WriteSite(), Every: 1, Match: int64(blk), Count: 1, Quiet: true})
	g, err = f.OpenFile(ctx, "/g", kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := g.Write(ctx, pattern((r.c.NumBuffers()+4)*testBlockSize, 3), 0); err != nil {
		t.Fatalf("write past the cache: %v", err)
	}
	if r.c.WriteError(r.d) == nil {
		t.Fatal("the evicted delayed write's error did not latch on the device")
	}
	return fl, g
}

// TestEvictedWriteErrorSurfacesAtFsync is the regression test for the
// silently dropped delayed-write error: a bdwrite buffer that getblk
// recycles hits a media error at interrupt level, with no process
// waiting to hear about it. The error must latch per device and surface
// at the next fsync, not vanish.
func TestEvictedWriteErrorSurfacesAtFsync(t *testing.T) {
	r := newCacheRig(t, 512, 16)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, g := evictedWriteRig(t, r, ctx, f)
		if err := fl.(*File).Sync(ctx); err != kernel.ErrIO {
			t.Fatalf("fsync after an evicted write's error = %v, want ErrIO", err)
		}
		// The error was consumed; the fault was one-shot, so rewriting
		// and syncing again must succeed.
		if _, err := fl.Write(ctx, pattern(testBlockSize, 9), 0); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("fsync after repair write = %v, want nil", err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := g.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestEvictedWriteErrorSurfacesAtClose is the close-path variant: with
// no intervening fsync, close is the last chance to report the lost
// delayed write.
func TestEvictedWriteErrorSurfacesAtClose(t *testing.T) {
	r := newCacheRig(t, 512, 16)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, g := evictedWriteRig(t, r, ctx, f)
		if err := fl.Close(ctx); err != kernel.ErrIO {
			t.Fatalf("close after an evicted write's error = %v, want ErrIO", err)
		}
		if err := g.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestEnospcMidExtensionRollsBack is the regression test for leaked
// blocks on a failed multi-block extension: when a single Write call
// runs out of space partway through, the blocks it allocated earlier in
// the same call (beyond the successfully written prefix) must be given
// back — fsck must find zero leaked blocks.
func TestEnospcMidExtensionRollsBack(t *testing.T) {
	r := newRig(t, 32) // tiny volume: a handful of data blocks
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/big", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// One call asking for far more than the volume holds.
		big := pattern(64*testBlockSize, 5)
		n, werr := fl.Write(ctx, big, 0)
		if werr != kernel.ErrNoSpace {
			t.Fatalf("oversized write: n=%d err=%v, want ErrNoSpace", n, werr)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		rep, err := Fsck(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("fsck after ENOSPC rollback: %d problem(s), first: %s",
				len(rep.Problems), rep.Problems[0])
		}
		// The written prefix must still read back.
		fl2, err := f.OpenFile(ctx, "/big", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := make([]byte, n)
		if rn, err := fl2.Read(ctx, got, 0); err != nil || rn != n {
			t.Fatalf("read prefix: n=%d err=%v, want %d", rn, err, n)
		}
		if !bytes.Equal(got, big[:n]) {
			t.Fatal("surviving prefix differs from what Write reported written")
		}
		_ = fl2.Close(ctx)
	})
}

// TestFsckRepairMatrix drives the repairing fsck over damageCases. Every
// case must converge: repair reports and fixes the damage, and the
// follow-up plain fsck finds a clean volume.
func TestFsckRepairMatrix(t *testing.T) {
	for _, tc := range damageCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 512)
			r.run(t, func(p *kernel.Proc, f *FS) {
				ctx := p.Ctx()
				damageBase(t, r, ctx, f)
				tc.corrupt(t, r)

				rep, err := FsckRepair(ctx, r.c, r.d)
				if err != nil {
					t.Fatalf("fsck-repair: %v", err)
				}
				if tc.wantProblems && len(rep.Problems) == 0 {
					t.Error("corruption went undetected by repair")
				}
				if !tc.wantProblems && rep.Repaired != 0 {
					t.Errorf("clean volume repaired %d time(s): %v", rep.Repaired, rep.Problems)
				}
				chk, err := Fsck(ctx, r.c, r.d)
				if err != nil {
					t.Fatalf("post-repair fsck: %v", err)
				}
				if !chk.Clean() {
					t.Fatalf("volume not clean after repair: %d problem(s), first: %s",
						len(chk.Problems), chk.Problems[0])
				}
			})
		})
	}
}

// metaDigest hashes the metadata region — superblock, allocation
// bitmap, and inode table — straight off the media.
func metaDigest(r *rig) uint64 {
	sb := superRaw(r)
	h := fnv.New64a()
	raw := make([]byte, sb.BlockSize)
	for blk := int64(0); blk < int64(sb.DataStart); blk++ {
		r.d.ReadRaw(blk, raw)
		h.Write(raw)
	}
	return h.Sum64()
}

// TestFsckRepairIdempotent: repair must converge in one pass. After a
// first FsckRepair fixes compound damage, a second pass must find
// nothing, fix nothing, and leave the on-media metadata byte-exact.
func TestFsckRepairIdempotent(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for _, path := range []string{"/a", "/b"} {
			fl, err := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			if _, err := fl.Write(ctx, pattern(2*testBlockSize, 7), 0); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
			if err := fl.Close(ctx); err != nil {
				t.Fatalf("close %s: %v", path, err)
			}
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		if err := r.c.InvalidateDev(ctx, r.d); err != nil {
			t.Fatalf("invalidate: %v", err)
		}

		// Compound damage touching every metadata structure: a mangled
		// inode (bad link count and an out-of-range block pointer), an
		// orphan inode, a spurious bitmap bit, and skewed superblock
		// counters.
		di := r.readDinodeRaw(inoA)
		di.Nlink = 9
		di.Direct[1] = superRaw(r).TotalBlocks + 4
		r.writeDinodeRaw(inoA, di)
		r.writeDinodeRaw(20, dinode{Mode: ModeFile, Nlink: 1, Size: 0})
		sb := superRaw(r)
		r.flipBitmapRaw(sb.TotalBlocks-2, true)
		sb.FreeBlocks += 5
		raw := make([]byte, sb.BlockSize)
		r.d.ReadRaw(0, raw)
		sb.encode(raw)
		r.d.WriteRaw(0, raw)

		rep1, err := FsckRepair(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("first repair: %v", err)
		}
		if rep1.Repaired == 0 {
			t.Fatal("compound damage produced no repairs")
		}
		d1 := metaDigest(r)

		rep2, err := FsckRepair(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("second repair: %v", err)
		}
		if rep2.Repaired != 0 || len(rep2.Problems) != 0 {
			t.Fatalf("second pass not a no-op: %d problem(s), %d fix(es), first: %v",
				len(rep2.Problems), rep2.Repaired, rep2.Problems)
		}
		if d2 := metaDigest(r); d2 != d1 {
			t.Fatalf("second pass changed the metadata region: %#x -> %#x", d1, d2)
		}
		chk, err := Fsck(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("final fsck: %v", err)
		}
		if !chk.Clean() {
			t.Fatalf("volume not clean after converged repair: %v", chk.Problems)
		}
	})
}

// TestCrashRecoverySyncedFileSurvives is the end-to-end crash contract
// at the fs layer: power cut after an fsync, repair, remount — the
// synced file reads back byte-exact, and a file created (but never
// synced) before the crash still exists by name.
func TestCrashRecoverySyncedFileSurvives(t *testing.T) {
	r := newRig(t, 512)
	want := pattern(3*testBlockSize, 11)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/synced", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := fl.Write(ctx, want, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		// A second file whose data is only in dirty delayed-write
		// buffers at crash time: the name is durable (ordered create),
		// the content is not.
		fl2, err := f.OpenFile(ctx, "/unsynced", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create unsynced: %v", err)
		}
		if _, err := fl2.Write(ctx, pattern(testBlockSize, 13), 0); err != nil {
			t.Fatalf("write unsynced: %v", err)
		}
		if err := fl2.Close(ctx); err != nil {
			t.Fatalf("close unsynced: %v", err)
		}

		// Power cut.
		if n := f.LiveInodes(); n != 0 {
			t.Fatalf("not quiescent before crash: %d in-core inode(s)", n)
		}
		dropped := r.d.Crash()
		for r.d.Busy() {
			p.SleepFor(10 * sim.Millisecond)
		}
		lost, _ := r.c.Crash(r.d)
		t.Logf("crash: %d dirty buffer(s) lost, %d queued request(s) dropped", lost, dropped)
		if lost == 0 {
			t.Error("crash lost no dirty buffers: the unsynced write was not delayed")
		}

		// Recovery.
		rep, err := FsckRepair(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("fsck-repair: %v", err)
		}
		t.Logf("repair: %d problem(s), %d fix(es)", len(rep.Problems), rep.Repaired)
		chk, err := Fsck(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("post-repair fsck: %v", err)
		}
		if !chk.Clean() {
			t.Fatalf("volume not clean after crash repair: %d problem(s), first: %s",
				len(chk.Problems), chk.Problems[0])
		}
		f2, err := Mount(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		fl3, err := f2.OpenFile(ctx, "/synced", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("synced file lost by the crash: %v", err)
		}
		got := make([]byte, len(want)+1)
		n, err := fl3.Read(ctx, got, 0)
		if err != nil {
			t.Fatalf("read synced: %v", err)
		}
		_ = fl3.Close(ctx)
		if n != len(want) || !bytes.Equal(got[:n], want) {
			t.Fatalf("synced file not byte-exact after crash: got %d bytes, want %d", n, len(want))
		}
		if !f2.Exists(ctx, "/unsynced") {
			t.Error("durably created (unsynced) file lost its name in the crash")
		}
	})
}

// TestErrIOMidExtensionLeavesCleanFsck is the mid-extension ErrIO
// companion to the ENOSPC rollback test: a media read error partway
// through a multi-block write that crosses into the indirect range
// must surface ErrIO with the completed prefix — and, like ENOSPC,
// must not leak a single block for fsck to find. The fault is armed on
// the file's indirect pointer block, so the failing iteration is the
// one that extends past the direct blocks.
func TestErrIOMidExtensionLeavesCleanFsck(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/f", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// 13 blocks: the file owns an indirect block, durably on disk.
		if _, err := fl.Write(ctx, pattern(13*testBlockSize, 2), 0); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		indir := int64(fl.(*File).Inode().indir)
		if indir == 0 {
			t.Fatal("13-block file has no indirect block")
		}
		// Force the next use of the indirect block to the media, where
		// a one-shot read fault waits for it.
		if err := r.c.InvalidateBlocks(ctx, r.d, []int64{indir}); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		r.k.Faults().Arm(kernel.FaultArm{Site: r.d.ReadSite(), Every: 1, Match: indir, Count: 1, Quiet: true})
		// Two blocks starting at direct block 11: the first lands, the
		// second needs the indirect block and dies on the media error.
		n, werr := fl.Write(ctx, pattern(2*testBlockSize, 9), 11*testBlockSize)
		if werr != kernel.ErrIO || n != testBlockSize {
			t.Fatalf("write across fault: n=%d err=%v, want %d, ErrIO", n, werr, testBlockSize)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		rep, err := Fsck(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("fsck after mid-extension ErrIO: %d problem(s), first: %s",
				len(rep.Problems), rep.Problems[0])
		}
	})
}

// TestRollbackBlockAfterFailedBread drives Write's ErrIO rollback path
// (file.go: fresh partial-block allocation whose read-back fails)
// directly: allocate a block past the indirect boundary, push its
// zero-filled buffer to the media and drop the cached copy, fault the
// block, and take the same Bread failure the write path would. After
// rollbackBlock the pointer is a hole again, no cached buffer shadows
// the freed block, and fsck finds zero leaked blocks.
func TestRollbackBlockAfterFailedBread(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/f", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := fl.Write(ctx, pattern(13*testBlockSize, 4), 0); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		file := fl.(*File)
		ip := file.Inode()
		const lblk = 14 // second block of the indirect range
		ip.lock(ctx)
		pblk, fresh, err := ip.bmap(ctx, lblk, true, true)
		if err != nil || !fresh {
			ip.unlock()
			t.Fatalf("bmap alloc: fresh=%v, %v", fresh, err)
		}
		// Evict the fresh zero-filled buffer (flushing it out) so the
		// read-back goes to the media, then fault the block: the exact
		// state in which Write's Bread fails mid-extension.
		if err := r.c.InvalidateBlocks(ctx, r.d, []int64{int64(pblk)}); err != nil {
			ip.unlock()
			t.Fatalf("invalidate: %v", err)
		}
		r.k.Faults().Arm(kernel.FaultArm{Site: r.d.ReadSite(), Every: 1, Match: int64(pblk), Count: 1, Quiet: true})
		if _, err := r.c.Bread(ctx, r.d, int64(pblk)); err != kernel.ErrIO {
			ip.unlock()
			t.Fatalf("bread of faulted block = %v, want ErrIO", err)
		}
		file.rollbackBlock(ctx, lblk)
		back, _, err := ip.bmap(ctx, lblk, false, false)
		ip.unlock()
		if err != nil || back != 0 {
			t.Fatalf("after rollback bmap = %d, %v, want hole", back, err)
		}
		if b := r.c.Peek(r.d, int64(pblk)); b != nil {
			t.Fatalf("freed block %d still cached", pblk)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		rep, err := Fsck(ctx, r.c, r.d)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("fsck after ErrIO rollback: %d problem(s), first: %s",
				len(rep.Problems), rep.Problems[0])
		}
	})
}
