package fs

import (
	"strings"
	"testing"

	"kdp/internal/kernel"
)

// fsckAfter runs ops on a fresh volume, syncs, then fscks it.
func fsckAfter(t *testing.T, corrupt func(r *rig), ops func(p *kernel.Proc, f *FS)) *FsckReport {
	t.Helper()
	r := newRig(t, 512)
	var rep *FsckReport
	r.run(t, func(p *kernel.Proc, f *FS) {
		ops(p, f)
		if err := f.SyncAll(p.Ctx()); err != nil {
			t.Fatal(err)
		}
		if err := f.Cache().InvalidateDev(p.Ctx(), r.d); err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			corrupt(r)
			if err := f.Cache().InvalidateDev(p.Ctx(), r.d); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		rep, err = Fsck(p.Ctx(), f.Cache(), r.d)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
	})
	return rep
}

func TestFsckCleanVolume(t *testing.T) {
	rep := fsckAfter(t, nil, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		if err := f.Mkdir(ctx, "/dir"); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/a", "/dir/b"} {
			fl, err := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Write(ctx, pattern(3*testBlockSize, 1), 0); err != nil {
				t.Fatal(err)
			}
			_ = fl.Close(ctx)
		}
	})
	if !rep.Clean() {
		t.Fatalf("clean volume reported problems: %v", rep.Problems)
	}
	if rep.Files != 2 || rep.Dirs != 2 { // root + /dir
		t.Fatalf("census wrong: %d files, %d dirs", rep.Files, rep.Dirs)
	}
	if rep.UsedBlocks < 7 { // 3 data blocks x2 files + dir block
		t.Fatalf("used blocks = %d", rep.UsedBlocks)
	}
}

func TestFsckCleanAfterChurn(t *testing.T) {
	rep := fsckAfter(t, nil, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for i := 0; i < 3; i++ {
			fl, _ := f.OpenFile(ctx, "/churn", kernel.OCreat|kernel.ORdWr)
			_, _ = fl.Write(ctx, pattern(20*testBlockSize, byte(i)), 0)
			_ = fl.Close(ctx)
			if err := f.Remove(ctx, "/churn"); err != nil {
				t.Fatal(err)
			}
		}
		fl, _ := f.OpenFile(ctx, "/kept", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(testBlockSize/2, 9), 0)
		_ = fl.Close(ctx)
	})
	if !rep.Clean() {
		t.Fatalf("churned volume inconsistent: %v", rep.Problems)
	}
}

func TestFsckLargeFileIndirect(t *testing.T) {
	rep := fsckAfter(t, nil, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/big", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(30*testBlockSize, 2), 0) // past direct blocks
		_ = fl.Close(ctx)
	})
	if !rep.Clean() {
		t.Fatalf("indirect file volume inconsistent: %v", rep.Problems)
	}
	if rep.UsedBlocks < 31 { // 30 data + 1 indirect
		t.Fatalf("used blocks = %d, want >= 31", rep.UsedBlocks)
	}
}

// corruptBitmapBit flips the bitmap bit for a data block directly on
// the media.
func corruptBitmapBit(r *rig, blk uint32, set bool) {
	raw := make([]byte, testBlockSize)
	bitsPerBlk := testBlockSize * 8
	bmBlk := int64(1) + int64(int(blk)/bitsPerBlk) // BitmapStart == 1
	r.d.ReadRaw(bmBlk, raw)
	bit := int(blk) % bitsPerBlk
	if set {
		raw[bit/8] |= 1 << uint(bit%8)
	} else {
		raw[bit/8] &^= 1 << uint(bit%8)
	}
	r.d.WriteRaw(bmBlk, raw)
}

func TestFsckDetectsLeakedBlock(t *testing.T) {
	var leaked uint32
	rep := fsckAfter(t, func(r *rig) {
		corruptBitmapBit(r, leaked, true)
	}, func(p *kernel.Proc, f *FS) {
		leaked = f.Super().DataStart + 40 // unreferenced data block
	})
	if rep.Clean() {
		t.Fatal("leaked block not detected")
	}
	found := false
	for _, pr := range rep.Problems {
		if strings.Contains(pr, "leaked") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no leak problem in %v", rep.Problems)
	}
}

func TestFsckDetectsFreeReferencedBlock(t *testing.T) {
	var victim uint32
	rep := fsckAfter(t, func(r *rig) {
		corruptBitmapBit(r, victim, false)
	}, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/v", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(testBlockSize, 3), 0)
		file := fl.(*File)
		table, _ := file.SpliceMapRead(ctx, 0, 1)
		victim = table[0]
		_ = fl.Close(ctx)
	})
	if rep.Clean() {
		t.Fatal("referenced-but-free block not detected")
	}
}

func TestFsckDetectsCrossLinkedBlock(t *testing.T) {
	// Point two inodes' direct[0] at the same physical block by
	// editing the inode table on the media.
	rep := fsckAfter(t, func(r *rig) {
		raw := make([]byte, testBlockSize)
		// Inode table starts right after the 1-block bitmap: block 2.
		r.d.ReadRaw(2, raw)
		// Inodes 2 and 3 (created below as /x and /y): copy x's
		// direct[0] into y's.
		var x, y dinode
		x.decode(raw[2*InodeSize:])
		y.decode(raw[3*InodeSize:])
		y.direct[0] = x.direct[0]
		y.encode(raw[3*InodeSize:])
		r.d.WriteRaw(2, raw)
	}, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for _, path := range []string{"/x", "/y"} {
			fl, _ := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
			_, _ = fl.Write(ctx, pattern(testBlockSize, 4), 0)
			_ = fl.Close(ctx)
		}
	})
	if rep.Clean() {
		t.Fatal("cross-linked block not detected")
	}
	found := false
	for _, pr := range rep.Problems {
		if strings.Contains(pr, "already referenced") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cross-link problem in %v", rep.Problems)
	}
}

func TestFsckDetectsDanglingDirent(t *testing.T) {
	rep := fsckAfter(t, func(r *rig) {
		// Zero the inode that /dangling points to, leaving the dirent.
		raw := make([]byte, testBlockSize)
		r.d.ReadRaw(2, raw)
		for i := 0; i < InodeSize; i++ {
			raw[2*InodeSize+i] = 0 // inode 2 = first created file
		}
		r.d.WriteRaw(2, raw)
	}, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/dangling", kernel.OCreat|kernel.ORdWr)
		_ = fl.Close(ctx)
	})
	if rep.Clean() {
		t.Fatal("dangling directory entry not detected")
	}
}

func TestFsckDetectsBadLinkCount(t *testing.T) {
	rep := fsckAfter(t, func(r *rig) {
		raw := make([]byte, testBlockSize)
		r.d.ReadRaw(2, raw)
		var di dinode
		di.decode(raw[2*InodeSize:])
		di.nlink = 7
		di.encode(raw[2*InodeSize:])
		r.d.WriteRaw(2, raw)
	}, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/lc", kernel.OCreat|kernel.ORdWr)
		_ = fl.Close(ctx)
	})
	if rep.Clean() {
		t.Fatal("bad link count not detected")
	}
}

func TestFsckDetectsBadSuperblockCounts(t *testing.T) {
	rep := fsckAfter(t, func(r *rig) {
		raw := make([]byte, testBlockSize)
		r.d.ReadRaw(0, raw)
		var sb Superblock
		if err := sb.decode(raw); err != nil {
			panic(err)
		}
		sb.FreeBlocks += 13
		sb.encode(raw)
		r.d.WriteRaw(0, raw)
	}, func(p *kernel.Proc, f *FS) {})
	if rep.Clean() {
		t.Fatal("bad superblock free count not detected")
	}
}
