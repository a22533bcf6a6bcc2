package fs

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// File is an open regular file (or directory opened read-only). It
// implements kernel.FileOps and the splice source/sink accessors.
type File struct {
	fs     *FS
	ip     *Inode
	closed bool
}

// Inode returns the file's in-core inode.
func (fl *File) Inode() *Inode { return fl.ip }

// Dev returns the block device backing the file.
func (fl *File) Dev() buf.Device { return fl.fs.dev }

// BufCache returns the buffer cache the file's I/O goes through.
func (fl *File) BufCache() *buf.Cache { return fl.fs.cache }

// Read implements kernel.FileOps: it copies up to len(p) bytes starting
// at off out of the buffer cache, issuing device reads on misses with
// adaptive readahead: a read continuing exactly where the previous one
// ended is sequential and doubles the file's readahead window (up to
// the filesystem's SetReadahead cap, one block by default, as in
// 4.3BSD); any seek collapses the window to zero so random access
// never speculates. Window blocks are fetched asynchronously through
// the cache's budgeted StartReadahead, overlapping disk latency with
// the copy loop. Holes read as zeros.
func (fl *File) Read(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	if fl.closed {
		return 0, kernel.ErrBadFD
	}
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()

	if off >= ip.size {
		return 0, nil
	}
	if max := ip.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	if raMax := fl.fs.raMax; raMax > 0 && off == ip.raNext {
		// Sequential continuation: grow the window exponentially.
		if ip.raWindow == 0 {
			ip.raWindow = 1
		} else if ip.raWindow < raMax {
			ip.raWindow *= 2
			if ip.raWindow > raMax {
				ip.raWindow = raMax
			}
		}
	} else {
		// Seek (or readahead disabled): collapse. raAhead is reset so a
		// scan resuming here later starts a fresh window.
		ip.raWindow = 0
		ip.raAhead = 0
	}
	bsize := int64(fl.fs.BlockSize())
	done := 0
	defer func() { ip.raNext = off + int64(done) }()
	for done < len(p) {
		lblk := (off + int64(done)) / bsize
		boff := (off + int64(done)) % bsize
		n := int(bsize - boff)
		if n > len(p)-done {
			n = len(p) - done
		}
		pblk, _, err := ip.bmap(ctx, lblk, false, false)
		if err != nil {
			return done, err
		}
		if pblk == 0 {
			clear(p[done : done+n]) // hole: zero fill
			done += n
			continue
		}
		fl.readahead(ctx, lblk)
		b, err := fl.fs.cache.Bread(ctx, fl.fs.dev, int64(pblk))
		if err != nil {
			return done, err
		}
		copy(p[done:done+n], b.Data[boff:])
		fl.fs.cache.Brelse(ctx, b)
		done += n
	}
	return done, nil
}

// readahead extends the file's asynchronous readahead out to the edge
// of the current window, (lblk, lblk+raWindow], clamped at EOF. The
// window is refilled in batches: nothing happens while raAhead still
// covers blocks ahead of the scan, and when the scan catches up the
// whole window is mapped with one bmapRange (one pointer-block read
// per window, not per block) and issued back to back. Holes are
// skipped, and issue stops as soon as the cache reports its readahead
// budget exhausted — the window then catches up on a later call.
func (fl *File) readahead(ctx kernel.Ctx, lblk int64) {
	ip := fl.ip
	if ip.raWindow == 0 || ip.raAhead > lblk {
		return
	}
	bsize := int64(fl.fs.BlockSize())
	last := (ip.size - 1) / bsize // last logical block holding data
	end := lblk + int64(ip.raWindow)
	if end > last {
		end = last
	}
	start := lblk + 1
	if start <= ip.raAhead {
		start = ip.raAhead + 1
	}
	if start > end {
		return
	}
	pblks, err := ip.bmapRange(ctx, start, end)
	if err != nil {
		return
	}
	for i, pblk := range pblks {
		if pblk != 0 && !fl.fs.cache.StartReadahead(ctx, fl.fs.dev, int64(pblk)) {
			return
		}
		ip.raAhead = start + int64(i)
	}
}

// Write implements kernel.FileOps. Full-block writes allocate without
// zero fill and overwrite in place; partial blocks read-modify-write
// (or zero-fill on fresh allocation). Writes are delayed (bdwrite):
// data reaches the device on eviction or fsync, as in the BSD cache.
func (fl *File) Write(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	if fl.closed {
		return 0, kernel.ErrBadFD
	}
	if fl.ip.mode == ModeDir {
		return 0, kernel.ErrIsDir
	}
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()

	bsize := int64(fl.fs.BlockSize())
	done := 0
	for done < len(p) {
		pos := off + int64(done)
		lblk := pos / bsize
		boff := pos % bsize
		n := int(bsize - boff)
		if n > len(p)-done {
			n = len(p) - done
		}
		full := boff == 0 && n == int(bsize)

		// A full block is overwritten in place; a partial one preserves
		// the existing contents, and a fresh partial block is zero-filled
		// by the allocating bmap, matching the standard write path.
		pblk, fresh, err := ip.bmap(ctx, lblk, true, !full)
		if err != nil {
			return done, err
		}
		var b *buf.Buf
		if full {
			b = fl.fs.cache.Getblk(ctx, fl.fs.dev, int64(pblk))
		} else if b, err = fl.fs.cache.Bread(ctx, fl.fs.dev, int64(pblk)); err != nil {
			if fresh {
				// The block was allocated but no byte of it got
				// written: roll it back rather than leave a dead block
				// attached past the data actually written.
				fl.rollbackBlock(ctx, lblk)
			}
			return done, err
		}
		copy(b.Data[boff:], p[done:done+n])
		fl.fs.cache.Bdwrite(ctx, b)
		done += n
		if pos+int64(n) > ip.size {
			ip.size = pos + int64(n)
			ip.dirty = true
		}
	}
	return done, nil
}

// rollbackBlock undoes the allocation of logical block lblk after a
// mid-write failure: the data block returns to the bitmap and the
// direct/indirect pointer to it is cleared, so an ErrNoSpace (or I/O
// error) partway through a multi-block extension cannot leave blocks
// attached beyond the bytes actually written — and can never leak a
// marked-but-unreferenced block for fsck to find. Indirect pointer
// blocks allocated on the way stay: they are referenced by the inode
// and are reused by the next extension. Best effort: rollback failures
// are ignored (the original error is what the caller reports; a block
// left behind is still referenced, so the volume stays consistent).
func (fl *File) rollbackBlock(ctx kernel.Ctx, lblk int64) {
	f := fl.fs
	pblk, err := fl.ip.clearPtr(ctx, lblk)
	if err != nil || pblk == 0 {
		return
	}
	// Drop any cached copy before the block returns to the bitmap
	// (blkfree+binval discipline): a stale delayed-write buffer left
	// behind would otherwise be flushed later onto a block this file no
	// longer owns — possibly after the allocator hands it to another
	// file — and a clean one would shadow the next owner's fresh
	// allocation on a cache hit.
	_ = f.cache.InvalidateBlocks(ctx, f.dev, []int64{int64(pblk)})
	_ = f.freeBlock(ctx, pblk)
}

// Size implements kernel.SizeOps.
func (fl *File) Size(ctx kernel.Ctx) (int64, error) {
	if fl.closed {
		return 0, kernel.ErrBadFD
	}
	return fl.ip.size, nil
}

// Sync implements kernel.SyncOps: every dirty block of this file is
// forced to the device (writes issued back to back, then awaited) and
// the inode is written back. Any latched async write error on the
// device is consumed and reported — fsync is the call the latch exists
// to serve.
func (fl *File) Sync(ctx kernel.Ctx) error {
	if fl.closed {
		return kernel.ErrBadFD
	}
	err := fl.syncInode(ctx)
	// Consume the device latch in every case: a flush failure latched
	// its error, and a flush with nothing dirty left can still owe the
	// caller an earlier evicted delayed write's failure. Either way fsync
	// reports it exactly once.
	if lerr := fl.fs.cache.TakeWriteError(fl.fs.dev); err == nil {
		err = lerr
	}
	return err
}

// syncInode is the body of Sync, shared with the VM layer's PageFlush
// (a mapping outlives its descriptor, so msync must sync a file whose
// fd is closed). A store through a mapping made its page's held buffer
// a delayed write, so the flush below covers mmap I/O as it covers
// write() I/O. The sticky per-device write-error latch is deliberately
// not touched here: whether a sync consumes the latch (fsync) or only
// observes it (msync) is the caller's policy.
func (fl *File) syncInode(ctx kernel.Ctx) error {
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()

	bsize := int64(fl.fs.BlockSize())
	nblocks := (ip.size + bsize - 1) / bsize
	blknos := make([]int64, 0, nblocks+2)
	for l := int64(0); l < nblocks; l++ {
		pblk, _, err := ip.bmap(ctx, l, false, false)
		if err != nil {
			return err
		}
		if pblk != 0 {
			blknos = append(blknos, int64(pblk))
		}
	}
	if ip.indir != 0 {
		blknos = append(blknos, int64(ip.indir))
	}
	if ip.dindir != 0 {
		blknos = append(blknos, int64(ip.dindir))
	}
	if ip.dirty {
		if err := fl.fs.iupdate(ctx, ip); err != nil {
			return err
		}
	}
	// Include the inode-table block so the inode image itself (size,
	// pointers — dirtied by this file or flushed lazily by an earlier
	// close) is durable when fsync returns: that is the crash contract.
	itblk, _ := fl.fs.itableBlock(ip.ino)
	blknos = append(blknos, itblk)
	_, err := fl.fs.cache.FlushBlocks(ctx, fl.fs.dev, blknos)
	return err
}

// Close implements kernel.FileOps.
func (fl *File) Close(ctx kernel.Ctx) error {
	if fl.closed {
		return kernel.ErrBadFD
	}
	fl.closed = true
	err := fl.fs.iput(ctx, fl.ip)
	if err == nil {
		// Surface any latched async-write error on this device: with
		// delayed writes, close is often the last chance to report it.
		err = fl.fs.cache.TakeWriteError(fl.fs.dev)
	}
	return err
}

// Extend grows the file size to n without touching data; it never
// shrinks a file. A splice destination is sized up front, when its
// block table is built, and a writable shared mapping reaching past EOF
// is sized at mmap, its blocks allocated lazily by the write faults
// that dirty them. The size update is delayed metadata, made durable
// by fsync/msync.
func (fl *File) Extend(ctx kernel.Ctx, n int64) {
	ip := fl.ip
	ip.lock(ctx)
	if n > ip.size {
		ip.size = n
		ip.dirty = true
	}
	ip.unlock()
}

// ---- splice support: block tables, built "by successive calls to
// bmap()" (§5.2), one walk per block ----

// SpliceMapRead builds the source block table: the physical block
// numbers of logical blocks [first, end), 0 for a hole.
func (fl *File) SpliceMapRead(ctx kernel.Ctx, first, end int64) ([]uint32, error) {
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()
	table := make([]uint32, end-first)
	for i := range table {
		pblk, _, err := ip.bmap(ctx, first+int64(i), false, false)
		if err != nil {
			return nil, err
		}
		table[i] = pblk
	}
	return table, nil
}

// SpliceMapWrite builds the destination block table for logical blocks
// [first, end), allocating holes with the special bmap that skips
// zero-fill delayed writes (§5.2). fresh flags the blocks this call
// allocated: the write engine must land a fresh block's unwritten tail
// on disk as zeros, while a pre-existing block's tail beyond the
// transfer must be preserved.
func (fl *File) SpliceMapWrite(ctx kernel.Ctx, first, end int64) (table []uint32, fresh []bool, err error) {
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()
	table, fresh = make([]uint32, end-first), make([]bool, end-first)
	blknos := make([]int64, 0, len(table))
	for i := range table {
		if table[i], fresh[i], err = ip.bmap(ctx, first+int64(i), true, false); err != nil {
			break
		}
		blknos = append(blknos, int64(table[i]))
	}
	if err == nil {
		// The write engine bypasses the buffer cache (memory-less headers
		// straight to the driver), so cached copies of the destination
		// blocks must be purged now: a clean one would shadow the spliced
		// data on later reads, a dirty one would overwrite it on flush.
		err = ip.fs.cache.InvalidateBlocks(ctx, ip.fs.dev, blknos)
	}
	if err != nil {
		// A mapping that fails partway (the volume fills up, a bitmap
		// read errors) must not leave the blocks it did allocate attached
		// past EOF: unwritten, they hold their previous owner's data, and
		// a later partial write extending the file across them would
		// read it in.
		for i, fr := range fresh {
			if fr {
				fl.rollbackBlock(ctx, first+int64(i))
			}
		}
		return nil, nil, err
	}
	return table, fresh, nil
}

var (
	_ kernel.FileOps = (*File)(nil)
	_ kernel.SizeOps = (*File)(nil)
	_ kernel.SyncOps = (*File)(nil)
)
