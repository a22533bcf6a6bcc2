package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

const testBlockSize = 8192

type rig struct {
	k   *kernel.Kernel
	c   *buf.Cache
	d   *disk.Disk
	fsy *FS
}

// newRig formats and mounts a filesystem on a RAM disk.
func newRig(t *testing.T, blocks int64) *rig {
	t.Helper()
	return newCacheRig(t, blocks, 64)
}

// newCacheRig is newRig with an nbuf-buffer cache.
func newCacheRig(t *testing.T, blocks int64, nbuf int) *rig {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 1200 * sim.Second
	k := kernel.New(cfg)
	c := buf.NewCache(k, nbuf, testBlockSize)
	d := disk.New(k, disk.RAMDisk(blocks, testBlockSize))
	d.SetCache(c)
	if _, err := Mkfs(d, 128); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	r := &rig{k: k, c: c, d: d}
	return r
}

// run mounts (once) and executes fn in a process.
func (r *rig) run(t *testing.T, fn func(p *kernel.Proc, f *FS)) {
	t.Helper()
	r.k.Spawn("test", func(p *kernel.Proc) {
		if r.fsy == nil {
			f, err := Mount(p.Ctx(), r.c, r.d)
			if err != nil {
				t.Errorf("mount: %v", err)
				return
			}
			r.fsy = f
		}
		fn(p, r.fsy)
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

func TestMkfsAndMount(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		sb := f.Super()
		if sb.Magic != Magic {
			t.Errorf("magic = %#x", sb.Magic)
		}
		if sb.TotalBlocks != 512 {
			t.Errorf("total blocks = %d", sb.TotalBlocks)
		}
		if sb.DataStart == 0 || sb.FreeBlocks == 0 {
			t.Errorf("bad layout: %+v", sb)
		}
		if !f.Exists(p.Ctx(), "/") {
			t.Error("root missing")
		}
	})
}

// TestMkfsMetadataPinned holds the metadata blocks Mkfs writes — the
// superblock, every bitmap block and the inode table — to a sha256 per
// geometry, generated at commit 08f91e5 by the formatter that visited
// every bit of each bitmap block. The geometries are simcheck's two
// volumes, the volume of bench.DefaultSetup(RZ58) (an 8 MB file
// interleaved by 2, plus 64 blocks), this package's rig, a small-block
// device whose second bitmap block maps only data, and one whose inode
// table runs past the first bitmap block's 4 096 bits.
func TestMkfsMetadataPinned(t *testing.T) {
	for _, g := range []struct {
		name    string
		bsize   int
		blocks  int64
		ninodes int
		sum     string
	}{
		{"simcheck-d0", 8192, 600, 64, "55d8c68d8e5c43d140e16c93eaf254c6970ef86fa2527260cd8d81804909909c"},
		{"simcheck-d1", 8192, 220, 64, "61b4a72ee31dcc7acd89226db77697cb66c33a1873326021907b395e5f5e1320"},
		{"bench-rz58", 8192, 2112, 64, "d33af50db3f965b99a84c8cb764183660e7dcfe78ce33dc0b885eb6ffbdbb9e7"},
		{"fs-rig", 8192, 512, 128, "e916c1600913159316f792246aafaad735f4afaa97a8b5fa3f3d5482cb980e60"},
		{"two-bitmap-blocks", 512, 5000, 128, "ab27325ddd97136bf42465ed80789abe3874174f60c276c22408c79514798dfb"},
		{"itable-past-first-bitmap-block", 512, 20000, 16384, "af6390f60e97748c091601def42c50fda38c1e0972c5964f7e16074a4f093ba2"},
	} {
		t.Run(g.name, func(t *testing.T) {
			d := disk.New(kernel.New(kernel.DefaultConfig()), disk.RAMDisk(g.blocks, g.bsize))
			sb, err := Mkfs(d, g.ninodes)
			if err != nil {
				t.Fatalf("mkfs: %v", err)
			}
			h := sha256.New()
			blk := make([]byte, g.bsize)
			for b := int64(0); b < int64(sb.DataStart); b++ {
				d.ReadRaw(b, blk)
				h.Write(blk)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sum {
				t.Errorf("metadata of %d blocks (data from %d) hashes to %s, want %s", g.blocks, sb.DataStart, got, g.sum)
			}
		})
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 10 * sim.Second
	k := kernel.New(cfg)
	c := buf.NewCache(k, 16, testBlockSize)
	d := disk.New(k, disk.RAMDisk(64, testBlockSize))
	d.SetCache(c)
	k.Spawn("test", func(p *kernel.Proc) {
		if _, err := Mount(p.Ctx(), c, d); err == nil {
			t.Error("mount of unformatted device succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, 512)
	data := pattern(3*testBlockSize+100, 1) // spans blocks + partial tail
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/a.dat", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		n, err := fl.Write(ctx, data, 0)
		if err != nil || n != len(data) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		got := make([]byte, len(data))
		n, err = fl.Read(ctx, got, 0)
		if err != nil || n != len(data) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read data differs from written data")
		}
		if sz, _ := fl.(*File).Size(ctx); sz != int64(len(data)) {
			t.Fatalf("size = %d, want %d", sz, len(data))
		}
		_ = fl.Close(ctx)
	})
}

func TestReadAtOffsetsAndEOF(t *testing.T) {
	r := newRig(t, 512)
	data := pattern(2*testBlockSize, 3)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/b.dat", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, data, 0)

		// Unaligned read crossing a block boundary.
		got := make([]byte, 1000)
		n, err := fl.Read(ctx, got, testBlockSize-500)
		if err != nil || n != 1000 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data[testBlockSize-500:testBlockSize+500]) {
			t.Fatal("cross-block read wrong")
		}
		// Read at EOF.
		n, err = fl.Read(ctx, got, int64(len(data)))
		if n != 0 || err != nil {
			t.Fatalf("read at EOF: n=%d err=%v", n, err)
		}
		// Read straddling EOF is truncated.
		n, err = fl.Read(ctx, got, int64(len(data))-10)
		if n != 10 || err != nil {
			t.Fatalf("read near EOF: n=%d err=%v", n, err)
		}
		_ = fl.Close(ctx)
	})
}

func TestOverwriteInPlace(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/c.dat", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(testBlockSize, 0), 0)
		// Overwrite the middle.
		patch := []byte("HELLO")
		if _, err := fl.Write(ctx, patch, 100); err != nil {
			t.Fatalf("patch: %v", err)
		}
		got := make([]byte, testBlockSize)
		_, _ = fl.Read(ctx, got, 0)
		if !bytes.Equal(got[100:105], patch) {
			t.Fatal("patch not applied")
		}
		want := pattern(testBlockSize, 0)
		if !bytes.Equal(got[:100], want[:100]) || !bytes.Equal(got[105:], want[105:]) {
			t.Fatal("patch damaged surrounding bytes")
		}
		_ = fl.Close(ctx)
	})
}

func TestHolesReadAsZeros(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/sparse", kernel.OCreat|kernel.ORdWr)
		// Write one byte far into the file: everything before is a hole.
		if _, err := fl.Write(ctx, []byte{0xFF}, 5*testBlockSize); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, testBlockSize)
		n, err := fl.Read(ctx, got, 2*testBlockSize)
		if err != nil || n != testBlockSize {
			t.Fatalf("read hole: n=%d err=%v", n, err)
		}
		for i, b := range got {
			if b != 0 {
				t.Fatalf("hole byte %d = %d, want 0", i, b)
			}
		}
		_ = fl.Close(ctx)
	})
}

func TestLargeFileIndirectBlocks(t *testing.T) {
	// A file bigger than the direct pointers can hold (12 * 8KB = 96KB)
	// exercises the single-indirect path.
	r := newRig(t, 1024)
	const size = 40 * testBlockSize // 320KB
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/big", kernel.OCreat|kernel.ORdWr)
		chunk := pattern(testBlockSize, 9)
		for i := 0; i < 40; i++ {
			chunk[0] = byte(i)
			if _, err := fl.Write(ctx, chunk, int64(i)*testBlockSize); err != nil {
				t.Fatalf("write block %d: %v", i, err)
			}
		}
		got := make([]byte, testBlockSize)
		for _, i := range []int{0, 11, 12, 13, 39} {
			if _, err := fl.Read(ctx, got, int64(i)*testBlockSize); err != nil {
				t.Fatalf("read block %d: %v", i, err)
			}
			if got[0] != byte(i) {
				t.Fatalf("block %d marker = %d", i, got[0])
			}
		}
		if sz, _ := fl.(*File).Size(ctx); sz != size {
			t.Fatalf("size = %d, want %d", sz, size)
		}
		_ = fl.Close(ctx)
	})
}

func TestDoubleIndirectBlocks(t *testing.T) {
	// Beyond 12 + 2048 blocks requires the double-indirect path. Write
	// sparsely to keep the test fast: one block below, one above the
	// boundary.
	r := newRig(t, 2048)
	ppb := int64(testBlockSize / 4)
	boundary := int64(NDirect) + ppb
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/huge", kernel.OCreat|kernel.ORdWr)
		mark := func(lblk int64, v byte) {
			b := make([]byte, 16)
			b[0] = v
			if _, err := fl.Write(ctx, b, lblk*testBlockSize); err != nil {
				t.Fatalf("write lblk %d: %v", lblk, err)
			}
		}
		mark(boundary-1, 0xA1)
		mark(boundary, 0xB2)
		mark(boundary+ppb, 0xC3) // second level-1 entry

		got := make([]byte, 16)
		check := func(lblk int64, v byte) {
			if _, err := fl.Read(ctx, got, lblk*testBlockSize); err != nil {
				t.Fatalf("read lblk %d: %v", lblk, err)
			}
			if got[0] != v {
				t.Fatalf("lblk %d = %#x, want %#x", lblk, got[0], v)
			}
		}
		check(boundary-1, 0xA1)
		check(boundary, 0xB2)
		check(boundary+ppb, 0xC3)
		_ = fl.Close(ctx)
	})
}

func TestOTruncFreesBlocks(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/t.dat", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(20*testBlockSize, 2), 0)
		_ = fl.Close(ctx)
		freeBefore := f.Super().FreeBlocks

		fl2, err := f.OpenFile(ctx, "/t.dat", kernel.ORdWr|kernel.OTrunc)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if sz, _ := fl2.(*File).Size(ctx); sz != 0 {
			t.Fatalf("size after O_TRUNC = %d", sz)
		}
		if got := f.Super().FreeBlocks; got <= freeBefore {
			t.Fatalf("truncate freed nothing: %d -> %d", freeBefore, got)
		}
		_ = fl2.Close(ctx)
	})
}

func TestUnlinkFreesSpace(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		free0 := f.Super().FreeBlocks
		fl, _ := f.OpenFile(ctx, "/dead", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(10*testBlockSize, 4), 0)
		_ = fl.Close(ctx)
		if err := f.Remove(ctx, "/dead"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if f.Exists(ctx, "/dead") {
			t.Fatal("file still resolvable after unlink")
		}
		// All data blocks back (directory may hold one block).
		if got := f.Super().FreeBlocks; got+1 < free0 {
			t.Fatalf("blocks leaked: %d -> %d", free0, got)
		}
		if _, err := f.OpenFile(ctx, "/dead", kernel.ORdOnly); err != kernel.ErrNoEnt {
			t.Fatalf("open removed file: %v, want ErrNoEnt", err)
		}
	})
}

func TestDirectories(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		if err := f.Mkdir(ctx, "/sub"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := f.Mkdir(ctx, "/sub/deep"); err != nil {
			t.Fatalf("nested mkdir: %v", err)
		}
		if err := f.Mkdir(ctx, "/sub"); err != kernel.ErrExist {
			t.Fatalf("duplicate mkdir: %v, want ErrExist", err)
		}
		fl, err := f.OpenFile(ctx, "/sub/deep/file", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create nested: %v", err)
		}
		_, _ = fl.Write(ctx, []byte("nested"), 0)
		_ = fl.Close(ctx)
		if !f.Exists(ctx, "/sub/deep/file") {
			t.Fatal("nested file missing")
		}
		// Opening a directory for write must fail.
		if _, err := f.OpenFile(ctx, "/sub", kernel.ORdWr); err != kernel.ErrIsDir {
			t.Fatalf("open dir rw: %v, want ErrIsDir", err)
		}
		// Path through a file must fail.
		if _, err := f.OpenFile(ctx, "/sub/deep/file/x", kernel.ORdOnly); err != kernel.ErrNotDir {
			t.Fatalf("traverse file: %v, want ErrNotDir", err)
		}
	})
}

func TestCreateExclusiveSemantics(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, err := f.OpenFile(ctx, "/x", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		_, _ = fl.Write(ctx, []byte("keep"), 0)
		_ = fl.Close(ctx)
		// Re-open with O_CREAT on an existing file opens it.
		fl2, err := f.OpenFile(ctx, "/x", kernel.OCreat|kernel.ORdOnly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := make([]byte, 4)
		_, _ = fl2.Read(ctx, got, 0)
		if string(got) != "keep" {
			t.Fatal("O_CREAT clobbered an existing file")
		}
		_ = fl2.Close(ctx)
	})
}

func TestSyncPersistsAcrossRemount(t *testing.T) {
	r := newRig(t, 512)
	data := pattern(5*testBlockSize, 8)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/persist", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, data, 0)
		if err := fl.(*File).Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		_ = fl.Close(ctx)
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
	})
	// Fresh mount on the same media, with an invalidated cache.
	r.fsy = nil
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		if err := f.Cache().InvalidateDev(ctx, r.d); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		fl, err := f.OpenFile(ctx, "/persist", kernel.ORdOnly)
		if err != nil {
			t.Fatalf("open after remount: %v", err)
		}
		got := make([]byte, len(data))
		n, err := fl.Read(ctx, got, 0)
		if err != nil || n != len(data) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data lost across remount")
		}
		_ = fl.Close(ctx)
	})
}

func TestSpliceMapReadContiguousAllocation(t *testing.T) {
	// Sequential writes from a fresh filesystem should allocate
	// (mostly) contiguous physical blocks — the disk model rewards
	// this, and the experiments depend on it.
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/seq", kernel.OCreat|kernel.ORdWr)
		_, _ = fl.Write(ctx, pattern(16*testBlockSize, 5), 0)
		file := fl.(*File)
		table, err := file.SpliceMapRead(ctx, 0, 16)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		breaks := 0
		for i := 1; i < len(table); i++ {
			if table[i] != table[i-1]+1 {
				breaks++
			}
		}
		if breaks > 2 {
			t.Fatalf("allocation too fragmented: %v", table)
		}
		_ = fl.Close(ctx)
	})
}

func TestSpliceMapWriteAllocatesWithoutZeroFillIO(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/dst", kernel.OCreat|kernel.ORdWr)
		file := fl.(*File)
		table, fresh, err := file.SpliceMapWrite(ctx, 0, 32)
		if err != nil {
			t.Fatalf("map write: %v", err)
		}
		// Every block of a brand-new file is a fresh allocation.
		for i, fr := range fresh {
			if !fr {
				t.Errorf("block %d of a new file not reported fresh", i)
			}
		}
		// The special bmap must not create (zero-filled) cache buffers
		// for any of the freshly allocated data blocks.
		for i, pblk := range table {
			if pblk == 0 {
				t.Fatalf("block %d not allocated", i)
			}
			if b := f.Cache().Peek(r.d, int64(pblk)); b != nil {
				t.Fatalf("data block %d (phys %d) got a cache buffer; zero-fill not skipped", i, pblk)
			}
		}
		_ = fl.Close(ctx)
	})
}

func TestSpliceMapWriteRollsBackOnFailure(t *testing.T) {
	// A destination mapping that runs out of space must give back every
	// block it allocated: left attached past EOF, unwritten, they would
	// surface their previous owner's data under a later extending write.
	r := newRig(t, 64)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/dst", kernel.OCreat|kernel.ORdWr)
		file := fl.(*File)
		if _, err := file.Write(ctx, pattern(2*testBlockSize, 3), 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		free := f.Super().FreeBlocks
		if _, _, err := file.SpliceMapWrite(ctx, 0, 200); err != kernel.ErrNoSpace {
			t.Fatalf("mapping 200 blocks of a 64-block volume: %v, want ErrNoSpace", err)
		}
		// Only the indirect pointer block allocated on the way may stay:
		// the inode references it and the next extension reuses it.
		if kept := free - f.Super().FreeBlocks; kept > 1 {
			t.Errorf("failed mapping kept %d blocks", kept)
		}
		if blocks, err := file.SpliceMapRead(ctx, 0, 12); err != nil || blocks[1] == 0 || blocks[2] != 0 || blocks[11] != 0 {
			t.Errorf("after rollback the file maps %v (%v), want its two written blocks only", blocks, err)
		}
		_ = fl.Close(ctx)
		if err := f.SyncAll(ctx); err != nil {
			t.Fatal(err)
		}
		if rep, err := Fsck(ctx, r.c, r.d); err != nil || !rep.Clean() {
			t.Errorf("fsck after rollback: %v %v", err, rep.Problems)
		}
	})
}

func TestDirentEncodeDecodeProperty(t *testing.T) {
	f := func(ino uint32, raw []byte) bool {
		name := make([]byte, 0, MaxNameLen)
		for _, b := range raw {
			if len(name) >= MaxNameLen {
				break
			}
			if b != 0 && b != '/' {
				name = append(name, b)
			}
		}
		de := dirent{Ino: ino, Name: string(name)}
		var buf [DirentSize]byte
		encodeDirent(buf[:], de)
		got := decodeDirent(buf[:])
		return got.Ino == de.Ino && got.Name == de.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockEncodeDecodeProperty(t *testing.T) {
	f := func(bs, tb, ni, fb, fi uint32) bool {
		in := Superblock{
			Magic: Magic, BlockSize: bs, TotalBlocks: tb, NInodes: ni,
			BitmapStart: 1, BitmapLen: 2, ITableStart: 3, ITableLen: 4,
			DataStart: 7, FreeBlocks: fb, FreeInodes: fi,
		}
		blk := make([]byte, 64)
		in.encode(blk)
		var out Superblock
		if err := out.decode(blk); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDinodeEncodeDecodeProperty(t *testing.T) {
	f := func(mode uint16, nlink uint16, size int64, d0, d11, ind, dind uint32) bool {
		if size < 0 {
			size = -size
		}
		in := dinode{Mode: mode, Nlink: nlink, Size: size, Indir: ind, DIndir: dind}
		in.Direct[0] = d0
		in.Direct[11] = d11
		blk := make([]byte, InodeSize)
		in.encode(blk)
		var out dinode
		out.decode(blk)
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfSpace(t *testing.T) {
	r := newRig(t, 32) // tiny volume
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl, _ := f.OpenFile(ctx, "/fill", kernel.OCreat|kernel.ORdWr)
		chunk := pattern(testBlockSize, 1)
		var werr error
		for i := 0; i < 64 && werr == nil; i++ {
			_, werr = fl.Write(ctx, chunk, int64(i)*testBlockSize)
		}
		if werr != kernel.ErrNoSpace {
			t.Fatalf("filling a tiny volume: err=%v, want ErrNoSpace", werr)
		}
		_ = fl.Close(ctx)
	})
}

func TestManyFilesInDirectory(t *testing.T) {
	r := newRig(t, 1024)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		names := []string{}
		// The rig formats 128 inodes; stay under that.
		for i := 0; i < 100; i++ {
			name := "/f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			names = append(names, name)
			fl, err := f.OpenFile(ctx, name, kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Fatalf("create %s (#%d): %v", name, i, err)
			}
			_, _ = fl.Write(ctx, []byte(name), 0)
			_ = fl.Close(ctx)
		}
		for _, name := range names {
			fl, err := f.OpenFile(ctx, name, kernel.ORdOnly)
			if err != nil {
				t.Fatalf("reopen %s: %v", name, err)
			}
			got := make([]byte, len(name))
			_, _ = fl.Read(ctx, got, 0)
			if string(got) != name {
				t.Fatalf("%s contains %q", name, got)
			}
			_ = fl.Close(ctx)
		}
	})
}

func TestDirEntrySlotReuse(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for i := 0; i < 3; i++ {
			fl, err := f.OpenFile(ctx, "/cycle", kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Fatalf("create round %d: %v", i, err)
			}
			_ = fl.Close(ctx)
			if err := f.Remove(ctx, "/cycle"); err != nil {
				t.Fatalf("remove round %d: %v", i, err)
			}
		}
		// Root directory should not have grown past one block.
		root, err := f.namei(ctx, "/")
		if err != nil {
			t.Fatal(err)
		}
		if root.size > testBlockSize {
			t.Fatalf("root dir grew to %d bytes; slots not reused", root.size)
		}
		_ = f.iput(ctx, root)
	})
}
