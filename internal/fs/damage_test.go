package fs

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// Inode numbers of damageBase's volume: ialloc scans from the bottom, so
// with root = 1 the creations land in order.
const (
	inoA   = 2
	inoB   = 3
	inoSub = 4
	inoC   = 5
	inoBig = 6
	// inoDeep is /deep, which deepBase adds.
	inoDeep = 7
)

// damageBase builds the volume every damage case starts from: /a and /b
// (two blocks each), the directory /sub holding /sub/c (one block), and
// /big, whose fourteen blocks take an indirect block. It syncs and
// empties the cache, so damage is planted on the media alone.
func damageBase(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
	t.Helper()
	write := func(path string, blocks int) {
		fl, err := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		if _, err := fl.Write(ctx, pattern(blocks*testBlockSize, 7), 0); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}
	write("/a", 2)
	write("/b", 2)
	if err := f.Mkdir(ctx, "/sub"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	write("/sub/c", 1)
	write("/big", 14)
	if err := f.SyncAll(ctx); err != nil {
		t.Fatalf("syncall: %v", err)
	}
	if err := r.c.InvalidateDev(ctx, r.d); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
}

// deepBase writes /deep on a mounted volume, syncs and empties the
// cache: a sparse file whose two blocks sit under its double-indirect
// block, one in each of the first two indirect blocks it points to, so
// its pointer tree is three levels deep in five blocks.
func deepBase(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
	t.Helper()
	fl, err := f.OpenFile(ctx, "/deep", kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("create /deep: %v", err)
	}
	ppb := int64(testBlockSize / 4)
	for _, lblk := range []int64{NDirect + ppb, NDirect + 2*ppb + 1} {
		if _, err := fl.Write(ctx, pattern(testBlockSize, 9), lblk*testBlockSize); err != nil {
			t.Fatalf("write /deep block %d: %v", lblk, err)
		}
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatalf("close /deep: %v", err)
	}
	if err := f.SyncAll(ctx); err != nil {
		t.Fatalf("syncall: %v", err)
	}
	if err := r.c.InvalidateDev(ctx, r.d); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
}

// ptrRaw returns entry i of pointer block blk, off the media.
func (r *rig) ptrRaw(blk uint32, i int) uint32 {
	raw := make([]byte, testBlockSize)
	r.d.ReadRaw(int64(blk), raw)
	return binary.LittleEndian.Uint32(raw[4*i:])
}

// setPtrRaw stores p in entry i of pointer block blk, on the media.
func (r *rig) setPtrRaw(blk uint32, i int, p uint32) {
	raw := make([]byte, testBlockSize)
	r.d.ReadRaw(int64(blk), raw)
	binary.LittleEndian.PutUint32(raw[4*i:], p)
	r.d.WriteRaw(int64(blk), raw)
}

// setIndirRaw stores p in entry i of inode ino's indirect block, on the
// media.
func (r *rig) setIndirRaw(ino uint32, i int, p uint32) {
	r.setPtrRaw(r.readDinodeRaw(ino).indir, i, p)
}

// editDirentRaw applies edit to the entry naming ino in directory dir's
// first block, on the media.
func (r *rig) editDirentRaw(dir, ino uint32, edit func(p []byte)) {
	raw := make([]byte, testBlockSize)
	blk := int64(r.readDinodeRaw(dir).direct[0])
	r.d.ReadRaw(blk, raw)
	for off := 0; off < testBlockSize; off += DirentSize {
		if binary.LittleEndian.Uint32(raw[off:]) == ino {
			edit(raw[off : off+DirentSize])
		}
	}
	r.d.WriteRaw(blk, raw)
}

// damageCases plants one kind of media damage each on damageBase's
// volume. wantProblems=false marks damage the checkers tolerate
// silently; every other case must be detected and repaired.
var damageCases = []struct {
	name         string
	wantProblems bool
	corrupt      func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS)
}{
	{"bad-pointer", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(inoA)
		di.direct[0] = superRaw(r).TotalBlocks + 5
		r.writeDinodeRaw(inoA, di)
	}},
	{"crosslink", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		a, b := r.readDinodeRaw(inoA), r.readDinodeRaw(inoB)
		b.direct[0] = a.direct[0]
		r.writeDinodeRaw(inoB, b)
	}},
	{"orphan-inode", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.writeDinodeRaw(20, dinode{mode: ModeFile, nlink: 1, size: 0})
	}},
	{"torn-dir-size", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(RootIno)
		di.size += 13
		r.writeDinodeRaw(RootIno, di)
	}},
	{"bad-nlink", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(inoA)
		di.nlink = 7
		r.writeDinodeRaw(inoA, di)
	}},
	{"bad-mode", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(inoB)
		di.mode = 0x1234
		r.writeDinodeRaw(inoB, di)
	}},
	{"negative-size", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(inoC)
		di.size = -5
		r.writeDinodeRaw(inoC, di)
	}},
	{"bitmap-both-ways", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		sb := superRaw(r)
		r.flipBitmapRaw(sb.TotalBlocks-3, true) // spurious in-use
		di := r.readDinodeRaw(inoA)
		r.flipBitmapRaw(di.direct[0], false) // used block marked free
	}},
	{"sb-counts", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		sb := superRaw(r)
		sb.FreeBlocks += 17
		sb.FreeInodes--
		raw := make([]byte, sb.BlockSize)
		r.d.ReadRaw(0, raw)
		sb.encode(raw)
		r.d.WriteRaw(0, raw)
	}},
	{"dangling-dirent", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.writeDinodeRaw(inoA, dinode{})
	}},
	{"empty-name", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.editDirentRaw(RootIno, inoSub, func(p []byte) {
			binary.LittleEndian.PutUint16(p[4:], 0)
		})
	}},
	{"indirect-out-of-range", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.setIndirRaw(inoBig, 1, superRaw(r).TotalBlocks+7)
	}},
	{"indirect-crosslink", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.setIndirRaw(inoBig, 0, r.readDinodeRaw(inoC).direct[0])
	}},
	{"shared-indirect", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		b := r.readDinodeRaw(inoB)
		b.indir = r.readDinodeRaw(inoBig).indir
		r.writeDinodeRaw(inoB, b)
	}},
	{"unreadable-indirect", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		// Two failed reads: one for Fsck, one for the FsckRepair after it.
		indir := int64(r.readDinodeRaw(inoBig).indir)
		r.k.Faults().Arm(kernel.FaultArm{Site: r.d.ReadSite(), Every: 1, Match: indir, Count: 2, Quiet: true})
	}},
	{"orphan-with-indirect", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.editDirentRaw(RootIno, inoBig, func(p []byte) { clear(p) })
	}},
	{"orphan-subtree", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		r.editDirentRaw(RootIno, inoSub, func(p []byte) { clear(p) })
	}},
	{"root-not-dir", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(RootIno)
		di.mode = ModeFile
		r.writeDinodeRaw(RootIno, di)
	}},
	{"dir-pointer-off-device", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		di := r.readDinodeRaw(inoSub)
		di.direct[0] = superRaw(r).TotalBlocks + 5
		r.writeDinodeRaw(inoSub, di)
	}},
	{"total-blocks-past-device", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		// Far enough that a bitmap walk trusting it leaves the device:
		// 512 blocks of 65 536 bits each map only 1<<25 blocks.
		sb := superRaw(r)
		sb.TotalBlocks = 1 << 26
		raw := make([]byte, sb.BlockSize)
		r.d.ReadRaw(0, raw)
		sb.encode(raw)
		r.d.WriteRaw(0, raw)
	}},
	{"double-indirect-out-of-range", true, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {
		// One bad entry at each level under the double-indirect block:
		// an indirect pointer in it, a data pointer in the indirect
		// block its first entry names.
		deepBase(t, r, ctx, f)
		end := superRaw(r).TotalBlocks
		dind := r.readDinodeRaw(inoDeep).dindir
		r.setPtrRaw(dind, 2, end+9)
		r.setPtrRaw(r.ptrRaw(dind, 0), 5, end+11)
	}},
	{"clean-volume", false, func(t *testing.T, r *rig, ctx kernel.Ctx, f *FS) {}},
}

// reportText renders every field of a report, one problem a line.
func reportText(rep *FsckReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "inodes=%d dirs=%d files=%d used=%d repaired=%d\n",
		rep.Inodes, rep.Dirs, rep.Files, rep.UsedBlocks, rep.Repaired)
	for _, p := range rep.Problems {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFsckReportsPinned holds the whole report of Fsck, then of
// FsckRepair, on every damaged image: the problems in order, the fixes
// and the census. The pins were generated at commit 0e35eb7, by the
// checkers that made one cache lookup per inode, directory entry and
// bitmap bit; reading each metadata block once must not change a word.
// The two off-device cases, which panicked Fsck until it stopped reading
// at the device's end, are pinned from the first checker to survive them;
// the double-indirect case from the separate fsck, repair and truncate
// walkers that walkTree replaced.
func TestFsckReportsPinned(t *testing.T) {
	for _, tc := range damageCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 512)
			var got string
			r.run(t, func(p *kernel.Proc, f *FS) {
				ctx := p.Ctx()
				damageBase(t, r, ctx, f)
				tc.corrupt(t, r, ctx, f)
				chk, err := Fsck(ctx, r.c, r.d)
				if err != nil {
					t.Fatalf("fsck: %v", err)
				}
				rep, err := FsckRepair(ctx, r.c, r.d)
				if err != nil {
					t.Fatalf("fsck-repair: %v", err)
				}
				got = "fsck: " + reportText(chk) + "repair: " + reportText(rep)
			})
			if want := reportPins[tc.name]; got != want {
				t.Errorf("reports moved:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

var reportPins = map[string]string{
	"bad-pointer": `fsck: inodes=6 dirs=2 files=4 used=21 repaired=0
inode 2: direct block 517 outside data region
block 5: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=21 repaired=3
inode 2: direct block 517 outside data region (cleared)
block 5: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 487 (fixed)
`,
	"crosslink": `fsck: inodes=6 dirs=2 files=4 used=21 repaired=0
inode 3: direct block 5 already referenced by inode 2
block 7: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=21 repaired=3
inode 3: direct block 5 already referenced by inode 2 (cleared)
block 7: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 487 (fixed)
`,
	"orphan-inode": `fsck: inodes=7 dirs=2 files=5 used=22 repaired=0
inode 20: link count 1, referenced 0 time(s)
superblock: free-inode count 121, table says 120
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
inode 20: orphaned (zapped)
`,
	"torn-dir-size": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
dir inode 1: torn size 269 (truncated)
`,
	"bad-nlink": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
inode 2: link count 7, referenced 1 time(s)
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
inode 2: link count 7, referenced 1 time(s) (fixed)
`,
	"bad-mode": `fsck: inodes=5 dirs=2 files=3 used=20 repaired=0
inode 3: invalid mode 4660
dir inode 1: entry "b" points to unallocated inode 3
block 7: marked in-use but unreferenced (leaked)
block 8: marked in-use but unreferenced (leaked)
superblock: free-inode count 121, table says 122
repair: inodes=5 dirs=2 files=3 used=20 repaired=6
inode 3: invalid mode 4660 (zapped)
dir inode 1: entry "b" points to unallocated inode 3 (cleared)
block 7: marked in-use but unreferenced (freed)
block 8: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 488 (fixed)
superblock: free-inode count 121, table says 122 (fixed)
`,
	"negative-size": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
inode 5: negative size -5
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
inode 5: negative size -5 (reset)
`,
	"bitmap-both-ways": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
block 5: referenced by inode 2 but free in bitmap
block 509: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=22 repaired=2
block 5: referenced by inode 2 but free in bitmap (marked)
block 509: marked in-use but unreferenced (freed)
`,
	"sb-counts": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
superblock: free-block count 503, bitmap says 486
superblock: free-inode count 120, table says 121
repair: inodes=6 dirs=2 files=4 used=22 repaired=2
superblock: free-block count 503, bitmap says 486 (fixed)
superblock: free-inode count 120, table says 121 (fixed)
`,
	"dangling-dirent": `fsck: inodes=5 dirs=2 files=3 used=20 repaired=0
dir inode 1: entry "a" points to unallocated inode 2
block 5: marked in-use but unreferenced (leaked)
block 6: marked in-use but unreferenced (leaked)
superblock: free-inode count 121, table says 122
repair: inodes=5 dirs=2 files=3 used=20 repaired=5
dir inode 1: entry "a" points to unallocated inode 2 (cleared)
block 5: marked in-use but unreferenced (freed)
block 6: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 488 (fixed)
superblock: free-inode count 121, table says 122 (fixed)
`,
	"empty-name": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
dir inode 1: entry for inode 4 has invalid name length 0
repair: inodes=4 dirs=1 files=3 used=20 repaired=7
dir inode 1: entry for inode 4 has invalid name (cleared)
inode 4: orphaned (zapped)
inode 5: orphaned (zapped)
block 9: marked in-use but unreferenced (freed)
block 10: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 488 (fixed)
superblock: free-inode count 121, table says 123 (fixed)
`,
	"indirect-out-of-range": `fsck: inodes=6 dirs=2 files=4 used=21 repaired=0
inode 6: data block 519 outside data region
block 25: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=21 repaired=3
inode 6: data block 519 outside data region (cleared)
block 25: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 487 (fixed)
`,
	"indirect-crosslink": `fsck: inodes=6 dirs=2 files=4 used=21 repaired=0
inode 6: data block 10 already referenced by inode 5
block 24: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=21 repaired=3
inode 6: data block 10 already referenced by inode 5 (cleared)
block 24: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 487 (fixed)
`,
	"shared-indirect": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
inode 6: indirect block 23 already referenced by inode 3
inode 6: data block 24 already referenced by inode 3
inode 6: data block 25 already referenced by inode 3
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
inode 6: indirect block 23 already referenced by inode 3 (cleared)
`,
	"unreadable-indirect": `fsck: inodes=6 dirs=2 files=4 used=20 repaired=0
inode 6: unreadable indirect block 23
block 24: marked in-use but unreferenced (leaked)
block 25: marked in-use but unreferenced (leaked)
repair: inodes=6 dirs=2 files=4 used=19 repaired=5
inode 6: unreadable indirect block 23 (cleared)
block 23: marked in-use but unreferenced (freed)
block 24: marked in-use but unreferenced (freed)
block 25: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 489 (fixed)
`,
	"orphan-with-indirect": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
inode 6: link count 1, referenced 0 time(s)
repair: inodes=5 dirs=2 files=3 used=7 repaired=18
inode 6: orphaned (zapped)
block 11: marked in-use but unreferenced (freed)
block 12: marked in-use but unreferenced (freed)
block 13: marked in-use but unreferenced (freed)
block 14: marked in-use but unreferenced (freed)
block 15: marked in-use but unreferenced (freed)
block 16: marked in-use but unreferenced (freed)
block 17: marked in-use but unreferenced (freed)
block 18: marked in-use but unreferenced (freed)
block 19: marked in-use but unreferenced (freed)
block 20: marked in-use but unreferenced (freed)
block 21: marked in-use but unreferenced (freed)
block 22: marked in-use but unreferenced (freed)
block 23: marked in-use but unreferenced (freed)
block 24: marked in-use but unreferenced (freed)
block 25: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 501 (fixed)
superblock: free-inode count 121, table says 122 (fixed)
`,
	"orphan-subtree": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
inode 4: link count 1, referenced 0 time(s)
repair: inodes=4 dirs=1 files=3 used=20 repaired=6
inode 4: orphaned (zapped)
inode 5: orphaned (zapped)
block 9: marked in-use but unreferenced (freed)
block 10: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 488 (fixed)
superblock: free-inode count 121, table says 123 (fixed)
`,
	"root-not-dir": `fsck: inodes=6 dirs=1 files=5 used=22 repaired=0
inode 2: link count 1, referenced 0 time(s)
inode 3: link count 1, referenced 0 time(s)
inode 4: link count 1, referenced 0 time(s)
inode 6: link count 1, referenced 0 time(s)
repair: inodes=1 dirs=1 files=0 used=0 repaired=30
root inode missing or not a directory (recreated empty)
inode 2: orphaned (zapped)
inode 3: orphaned (zapped)
inode 4: orphaned (zapped)
inode 6: orphaned (zapped)
inode 5: orphaned (zapped)
block 4: marked in-use but unreferenced (freed)
block 5: marked in-use but unreferenced (freed)
block 6: marked in-use but unreferenced (freed)
block 7: marked in-use but unreferenced (freed)
block 8: marked in-use but unreferenced (freed)
block 9: marked in-use but unreferenced (freed)
block 10: marked in-use but unreferenced (freed)
block 11: marked in-use but unreferenced (freed)
block 12: marked in-use but unreferenced (freed)
block 13: marked in-use but unreferenced (freed)
block 14: marked in-use but unreferenced (freed)
block 15: marked in-use but unreferenced (freed)
block 16: marked in-use but unreferenced (freed)
block 17: marked in-use but unreferenced (freed)
block 18: marked in-use but unreferenced (freed)
block 19: marked in-use but unreferenced (freed)
block 20: marked in-use but unreferenced (freed)
block 21: marked in-use but unreferenced (freed)
block 22: marked in-use but unreferenced (freed)
block 23: marked in-use but unreferenced (freed)
block 24: marked in-use but unreferenced (freed)
block 25: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 508 (fixed)
superblock: free-inode count 121, table says 126 (fixed)
`,
	"dir-pointer-off-device": `fsck: inodes=6 dirs=2 files=4 used=21 repaired=0
inode 4: direct block 517 outside data region
inode 5: link count 1, referenced 0 time(s)
block 9: marked in-use but unreferenced (leaked)
repair: inodes=5 dirs=2 files=3 used=20 repaired=6
inode 4: direct block 517 outside data region (cleared)
inode 5: orphaned (zapped)
block 9: marked in-use but unreferenced (freed)
block 10: marked in-use but unreferenced (freed)
superblock: free-block count 486, bitmap says 488 (fixed)
superblock: free-inode count 121, table says 122 (fixed)
`,
	"total-blocks-past-device": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
superblock: claims 67108864 blocks, device has 512
repair: inodes=6 dirs=2 files=4 used=22 repaired=1
superblock: claims 67108864 blocks, device has 512
`,
	"double-indirect-out-of-range": `fsck: inodes=7 dirs=2 files=5 used=27 repaired=0
inode 7: data block 523 outside data region
inode 7: indirect block 521 outside data region
repair: inodes=7 dirs=2 files=5 used=27 repaired=2
inode 7: data block 523 outside data region (cleared)
inode 7: indirect block 521 outside data region (cleared)
`,
	"clean-volume": `fsck: inodes=6 dirs=2 files=4 used=22 repaired=0
repair: inodes=6 dirs=2 files=4 used=22 repaired=0
`,
}

// metaBlocks counts, off the media, the distinct blocks a check of the
// volume reads through the cache: the superblock, the bitmap blocks
// mapping the data region, the inode-table blocks holding inodes 1 and
// up, every directory block and every pointer block, double-indirect
// blocks and the indirect blocks under them included. dirBlocks is the
// directory share.
func metaBlocks(r *rig) (all, dirBlocks int) {
	sb := superRaw(r)
	bits, per := sb.BlockSize*8, sb.BlockSize/InodeSize
	all = 1 + int((sb.TotalBlocks-1)/bits-sb.DataStart/bits+1) + int((sb.NInodes-1)/per-1/per+1)
	for ino := uint32(1); ino < sb.NInodes; ino++ {
		di := r.readDinodeRaw(ino)
		if di.indir != 0 {
			all++
		}
		if di.dindir != 0 {
			all++
			raw := make([]byte, sb.BlockSize)
			r.d.ReadRaw(int64(di.dindir), raw)
			for i := 0; i < len(raw); i += 4 {
				if binary.LittleEndian.Uint32(raw[i:]) != 0 {
					all++
				}
			}
		}
		for i, p := range di.direct {
			if di.mode == ModeDir && p != 0 && int64(i)*int64(sb.BlockSize) < di.size {
				dirBlocks++
			}
		}
	}
	return all + dirBlocks, dirBlocks
}

// TestFsckReadsEachBlockOnce: from an empty cache, Fsck makes exactly one
// cache lookup per metadata block it reads, and FsckRepair of the same
// clean volume no more. Repairing damage costs at most one more lookup
// per directory block for each extra reachability round and one per
// inode rewritten.
func TestFsckReadsEachBlockOnce(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		damageBase(t, r, ctx, f)
		deepBase(t, r, ctx, f)
		want, dirBlocks := metaBlocks(r)
		lookups := func(check func(kernel.Ctx, *buf.Cache, buf.Device) (*FsckReport, error)) int {
			if err := r.c.InvalidateDev(ctx, r.d); err != nil {
				t.Fatalf("invalidate: %v", err)
			}
			before := r.lookups()
			if _, err := check(ctx, r.c, r.d); err != nil {
				t.Fatalf("check: %v", err)
			}
			return int(r.lookups() - before)
		}
		if n := lookups(Fsck); n != want {
			t.Errorf("fsck: %d lookups for %d metadata blocks", n, want)
		}
		if n := lookups(FsckRepair); n != want {
			t.Errorf("repair of a clean volume: %d lookups for %d metadata blocks", n, want)
		}

		// An orphan costs a second reachability round and its zap; a bad
		// link count one inode rewrite.
		if err := r.c.InvalidateDev(ctx, r.d); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		r.writeDinodeRaw(20, dinode{mode: ModeFile, nlink: 1})
		di := r.readDinodeRaw(inoA)
		di.nlink = 7
		r.writeDinodeRaw(inoA, di)
		if n, bound := lookups(FsckRepair), want+dirBlocks+2; n > bound {
			t.Errorf("repair of an orphan and a bad link count: %d lookups, want at most %d", n, bound)
		}
	})
}

// TestTruncateFreesDeepTree: truncating /deep gives back its data
// blocks and every pointer block of its double-indirect tree, so the
// superblock's free count returns to its value before the file was
// written, and the volume stays clean.
func TestTruncateFreesDeepTree(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		damageBase(t, r, ctx, f)
		before := f.Super().FreeBlocks
		deepBase(t, r, ctx, f)
		if got := f.Super().FreeBlocks; got != before-5 {
			t.Fatalf("/deep took %d blocks, want 5", before-got)
		}
		fl, err := f.OpenFile(ctx, "/deep", kernel.ORdWr|kernel.OTrunc)
		if err != nil {
			t.Fatalf("truncate /deep: %v", err)
		}
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close /deep: %v", err)
		}
		if got := f.Super().FreeBlocks; got != before {
			t.Errorf("free blocks %d after truncating /deep, %d before it was written", got, before)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		if rep, err := Fsck(ctx, r.c, r.d); err != nil || !rep.Clean() {
			t.Errorf("fsck after truncate = %v, %v", rep, err)
		}
	})
}

// TestFsckRejectsImpossibleGeometry: a superblock whose block size is not
// the device's, or whose bitmap, inode table or inode count reaches past
// the device, must not send either checker off the device. Fsck reports
// the one problem and stops; FsckRepair refuses with its
// unrepairable-geometry error.
func TestFsckRejectsImpossibleGeometry(t *testing.T) {
	cases := []struct {
		name string
		edit func(sb *Superblock)
	}{
		{"block-size-zero", func(sb *Superblock) { sb.BlockSize = 0 }},
		{"bitmap-past-device", func(sb *Superblock) { sb.BitmapStart = sb.TotalBlocks + 5 }},
		{"itable-past-device", func(sb *Superblock) { sb.ITableStart = sb.TotalBlocks + 5 }},
		{"ninodes-past-device", func(sb *Superblock) { sb.NInodes = sb.TotalBlocks * (sb.BlockSize / InodeSize) }},
	}
	for _, tc := range cases {
		for _, repair := range []bool{false, true} {
			name := tc.name + "/fsck"
			if repair {
				name = tc.name + "/repair"
			}
			t.Run(name, func(t *testing.T) {
				r := newRig(t, 512)
				r.run(t, func(p *kernel.Proc, f *FS) {
					ctx := p.Ctx()
					damageBase(t, r, ctx, f)
					sb := superRaw(r)
					tc.edit(&sb)
					raw := make([]byte, testBlockSize)
					r.d.ReadRaw(0, raw)
					sb.encode(raw)
					r.d.WriteRaw(0, raw)
					if repair {
						rep, err := FsckRepair(ctx, r.c, r.d)
						if rep != nil || err == nil || !strings.Contains(err.Error(), "unrepairable superblock geometry") {
							t.Fatalf("repair = %v, %v; want the unrepairable-geometry error", rep, err)
						}
						return
					}
					rep, err := Fsck(ctx, r.c, r.d)
					if err != nil || len(rep.Problems) != 1 {
						t.Fatalf("fsck = %v, %v; want exactly one problem", rep, err)
					}
				})
			})
		}
	}
}
