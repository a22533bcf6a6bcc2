package fs

import (
	"encoding/binary"
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// FsckReport is the result of a consistency check (or, from
// FsckRepair, a repair pass).
type FsckReport struct {
	Inodes     int // allocated inodes encountered
	Dirs       int
	Files      int
	UsedBlocks int // data+indirect blocks referenced by inodes
	Repaired   int // individual fixes applied (FsckRepair only)
	Problems   []string
}

// Clean reports whether the volume is consistent.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck performs an offline consistency check of the volume on dev,
// reading through the given cache:
//
//   - superblock sanity (magic, geometry);
//   - every allocated inode's block pointers are in the data region,
//     referenced at most once, and marked in-use in the bitmap;
//   - the bitmap marks no leaked blocks (in-use but unreferenced);
//   - every directory entry names an allocated inode, and link counts
//     match directory references;
//   - free counters in the superblock match the bitmap and inode table.
//
// Like the historical fsck it expects a quiescent volume (no open
// writers), and like it each pass reads every metadata block once:
// an inode-table block for all its inodes, a directory block for all its
// entries, a bitmap block for all its bits.
func Fsck(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device) (*FsckReport, error) {
	rep := &FsckReport{}

	sbuf, err := cache.Bread(ctx, dev, 0)
	if err != nil {
		return nil, err
	}
	var sb Superblock
	err = sb.decode(sbuf.Data)
	cache.Brelse(ctx, sbuf)
	if err == nil {
		err = sb.checkGeometry(dev)
	}
	if err != nil {
		rep.problemf("superblock: %v", err)
		return rep, nil
	}
	if int64(sb.TotalBlocks) != dev.DevBlocks() {
		rep.problemf("superblock: claims %d blocks, device has %d", sb.TotalBlocks, dev.DevBlocks())
		// Check no further than the device reaches.
		sb.TotalBlocks = min(sb.TotalBlocks, uint32(dev.DevBlocks()))
	}
	if sb.DataStart >= sb.TotalBlocks {
		rep.problemf("superblock: data region starts beyond device (%d >= %d)", sb.DataStart, sb.TotalBlocks)
		return rep, nil
	}

	// Pass 1: walk the inode table, collecting block references.
	refs := map[uint32]uint32{} // physical block → first referencing inode
	links := map[uint32]int{}   // inode → directory references
	allocated := map[uint32]*dinode{}
	checkRef := func(ino, pblk uint32, what string) {
		if pblk < sb.DataStart || pblk >= sb.TotalBlocks {
			rep.problemf("inode %d: %s block %d outside data region", ino, what, pblk)
			return
		}
		if prev, dup := refs[pblk]; dup {
			rep.problemf("inode %d: %s block %d already referenced by inode %d", ino, what, pblk, prev)
			return
		}
		refs[pblk] = ino
		rep.UsedBlocks++
	}
	err = walkInodes(ctx, cache, dev, &sb, func(ino uint32, di *dinode) error {
		if di.mode != ModeFile && di.mode != ModeDir {
			rep.problemf("inode %d: invalid mode %d", ino, di.mode)
			return nil
		}
		allocated[ino] = di
		rep.Inodes++
		if di.mode == ModeDir {
			rep.Dirs++
		} else {
			rep.Files++
		}
		if di.size < 0 {
			rep.problemf("inode %d: negative size %d", ino, di.size)
		}
		walkTree(ctx, cache, dev, &sb, di, func(blk uint32, what string, err error) bool {
			if err != nil {
				rep.problemf("inode %d: unreadable %s block %d", ino, what, blk)
			} else {
				checkRef(ino, blk, what)
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: directory connectivity and link counts, in inode order so
	// the problem list is deterministic.
	for _, ino := range sortedInos(allocated) {
		di := allocated[ino]
		if di.mode != ModeDir {
			continue
		}
		err := walkDir(ctx, cache, dev, &sb, di, func(de dirent) bool {
			if _, ok := allocated[de.Ino]; !ok {
				rep.problemf("dir inode %d: entry %q points to unallocated inode %d", ino, de.Name, de.Ino)
				return false
			}
			links[de.Ino]++
			if len(de.Name) == 0 || len(de.Name) > MaxNameLen {
				rep.problemf("dir inode %d: entry for inode %d has invalid name length %d", ino, de.Ino, len(de.Name))
			}
			return false
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ino := range sortedInos(allocated) {
		di := allocated[ino]
		want := links[ino]
		if ino == RootIno {
			want++ // the root is referenced by convention, not a dirent
		}
		if int(di.nlink) != want {
			rep.problemf("inode %d: link count %d, referenced %d time(s)", ino, di.nlink, want)
		}
	}

	// Pass 3: bitmap cross-check.
	usedInBitmap := uint32(0)
	err = walkBitmap(ctx, cache, dev, &sb, sb.DataStart, sb.TotalBlocks, func(blk uint32, marked bool) bool {
		owner, referenced := refs[blk]
		if marked {
			usedInBitmap++
		}
		if referenced && !marked {
			rep.problemf("block %d: referenced by inode %d but free in bitmap", blk, owner)
		}
		if !referenced && marked {
			rep.problemf("block %d: marked in-use but unreferenced (leaked)", blk)
		}
		return marked
	})
	if err != nil {
		return nil, err
	}
	dataBlocks := sb.TotalBlocks - sb.DataStart
	if sb.FreeBlocks != dataBlocks-usedInBitmap {
		rep.problemf("superblock: free-block count %d, bitmap says %d", sb.FreeBlocks, dataBlocks-usedInBitmap)
	}
	wantFreeInodes := sb.NInodes - uint32(rep.Inodes) - 1 // ino 0 reserved
	if sb.FreeInodes != wantFreeInodes {
		rep.problemf("superblock: free-inode count %d, table says %d", sb.FreeInodes, wantFreeInodes)
	}
	return rep, nil
}

// checkGeometry is what both checkers require of a superblock before
// they address anything by it: the device's block size; the bitmap, the
// inode table and the data region following the superblock in that
// order, the data region starting on the device; a bitmap with a bit for
// every device block; and an inode table that holds NInodes inodes.
func (sb *Superblock) checkGeometry(dev buf.Device) error {
	bsize, devBlocks := uint64(sb.BlockSize), uint64(dev.DevBlocks())
	switch {
	case int(sb.BlockSize) != dev.DevBlockSize():
		return fmt.Errorf("block size %d, device's is %d", sb.BlockSize, dev.DevBlockSize())
	case sb.BitmapStart == 0,
		uint64(sb.BitmapStart)+uint64(sb.BitmapLen) > uint64(sb.ITableStart),
		uint64(sb.ITableStart)+uint64(sb.ITableLen) > uint64(sb.DataStart),
		uint64(sb.DataStart) >= devBlocks:
		return fmt.Errorf("bitmap at %d+%d, inode table at %d+%d and data from %d are out of order or off the %d-block device",
			sb.BitmapStart, sb.BitmapLen, sb.ITableStart, sb.ITableLen, sb.DataStart, devBlocks)
	case uint64(sb.BitmapLen)*bsize*8 < devBlocks:
		return fmt.Errorf("%d bitmap block(s) cannot map %d blocks", sb.BitmapLen, devBlocks)
	case uint64(sb.NInodes) > uint64(sb.ITableLen)*(bsize/InodeSize):
		return fmt.Errorf("%d inodes overflow %d inode-table block(s)", sb.NInodes, sb.ITableLen)
	}
	return nil
}

// walkInodes reads the inode table one block at a time and calls fn, in
// inode order, for every inode from 1 up that is not free, with a copy
// decoded from its block. The block is released before fn runs, so fn
// may read and write anything through the cache, the table included.
func walkInodes(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device, sb *Superblock, fn func(ino uint32, di *dinode) error) error {
	batch := make([]*dinode, sb.BlockSize/InodeSize)
	for ino := uint32(1); ino < sb.NInodes; {
		blk, _ := sb.inodeBlock(ino)
		b, err := cache.Bread(ctx, dev, blk)
		if err != nil {
			return err
		}
		first := ino
		for ; ino < sb.NInodes; ino++ {
			at, off := sb.inodeBlock(ino)
			if at != blk {
				break
			}
			if binary.LittleEndian.Uint16(b.Data[off:]) != ModeFree {
				batch[ino-first] = new(dinode)
				batch[ino-first].decode(b.Data[off:])
			}
		}
		cache.Brelse(ctx, b)
		for i, di := range batch[:ino-first] {
			if di == nil {
				continue
			}
			batch[i] = nil
			if err := fn(first+uint32(i), di); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkTree visits every nonzero block pointer of di depth first, in
// pointer order, each pointer block before its entries: the direct
// pointers, the indirect block and its data pointers, then the
// double-indirect block, each indirect block it names and their data
// pointers. what names the pointer in a report ("direct", "indirect",
// "double-indirect" or "data"). visit returns whether to keep it: a
// dropped pointer is zeroed, in di or in its pointer block, and nothing
// under it is read. A kept pointer block inside the data region is read
// and held while its entries are visited, then written back (delayed)
// if one was dropped, else released; if the read fails, visit is asked
// again with the error, and its answer stands. It is the one walk over
// a whole tree, as fsck's ckinode and iblock are in 4.4BSD: Fsck's
// visitor keeps and reports, FsckRepair's keeps what it can claim, and
// truncate's collects.
func walkTree(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device, sb *Superblock, di *dinode, visit func(blk uint32, what string, err error) (keep bool)) {
	le := binary.LittleEndian
	var tree func(blk uint32, what string, level int) bool
	tree = func(blk uint32, what string, level int) bool {
		if !visit(blk, what, nil) {
			return false
		}
		if level == 0 || blk < sb.DataStart || blk >= sb.TotalBlocks {
			return true
		}
		b, err := cache.Bread(ctx, dev, int64(blk))
		if err != nil {
			return visit(blk, what, err)
		}
		entry := "data"
		if level == 2 {
			entry = "indirect"
		}
		dropped := false
		for i := 0; i < int(sb.BlockSize); i += 4 {
			if p := le.Uint32(b.Data[i:]); p != 0 && !tree(p, entry, level-1) {
				le.PutUint32(cache.Store(b, false)[i:], 0)
				dropped = true
			}
		}
		if dropped {
			cache.Bdwrite(ctx, b)
		} else {
			cache.Brelse(ctx, b)
		}
		return true
	}
	roots := [...]string{"direct", "indirect", "double-indirect"} // by level
	for i := int64(0); i < NDirect+2; i++ {
		level := max(int(i)-NDirect+1, 0)
		if p := di.root(i); *p != 0 && !tree(*p, roots[level], level) {
			*p = 0
		}
	}
}

// walkDir reads each block of directory di once and calls fn, in offset
// order, on every entry in use below di.size. An entry fn returns true
// for is cleared in place; a block with a cleared entry is written back
// (delayed), any other released.
func walkDir(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device, sb *Superblock, di *dinode, fn func(de dirent) (clear bool)) error {
	bsize := int64(sb.BlockSize)
	for lblk := int64(0); lblk < NDirect && lblk*bsize < di.size; lblk++ {
		pblk := di.direct[lblk] // directories never outgrow direct blocks in this fs
		if pblk < sb.DataStart || pblk >= sb.TotalBlocks {
			continue // a hole, or a pointer pass 1 reported (or cleared)
		}
		b, err := cache.Bread(ctx, dev, int64(pblk))
		if err != nil {
			return err
		}
		cleared := false
		for off := int64(0); off < bsize && lblk*bsize+off < di.size; off += DirentSize {
			de := decodeDirent(b.Data[off:])
			if de.Ino != 0 && fn(de) {
				encodeDirent(cache.Store(b, false)[off:], dirent{})
				cleared = true
			}
		}
		if cleared {
			cache.Bdwrite(ctx, b)
		} else {
			cache.Brelse(ctx, b)
		}
	}
	return nil
}

// walkBitmap reads each bitmap block covering blocks [from, to) once and
// calls fn, in block order, with every block number in the range and its
// bit; fn returns the bit the block should have. A bitmap block whose
// bits changed is written back (delayed), any other released.
func walkBitmap(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device, sb *Superblock, from, to uint32, fn func(blk uint32, marked bool) bool) error {
	bits := int64(sb.BlockSize) * 8
	for blk := int64(from); blk < int64(to); {
		b, err := cache.Bread(ctx, dev, int64(sb.BitmapStart)+blk/bits)
		if err != nil {
			return err
		}
		changed := false
		for end := min(int64(to), (blk/bits+1)*bits); blk < end; blk++ {
			bit := blk % bits
			mask := byte(1) << uint(bit%8)
			marked := b.Data[bit/8]&mask != 0
			if fn(uint32(blk), marked) != marked {
				cache.Store(b, false)[bit/8] ^= mask
				changed = true
			}
		}
		if changed {
			cache.Bdwrite(ctx, b)
		} else {
			cache.Brelse(ctx, b)
		}
	}
	return nil
}
