package fs

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// VM backing-store hooks: a resident page of a mapped file *is* its
// block's cache buffer, held for the page (buf.Cache.Hold), so a pagein
// is a Bread that keeps the buffer, a load reads the buffer's memory,
// and a store makes it a delayed write the cache's own flushes write.
// *File satisfies vm.Backing structurally, so neither package imports
// the other.

// Pager is what SetPager accepts, a VM page pool (*vm.Pool).
type Pager interface{}

// SetPager does nothing: mapped stores are delayed writes in the cache,
// which fsync and SyncAll flush. The benchmark's probes still call it.
func (f *FS) SetPager(Pager) {}

// MapRef takes a mapping reference on the file's inode. A mapping
// outlives the descriptor it was created from (closing the fd must not
// tear down the mapping), so the VM holds its own inode reference from
// Mmap until the last Munmap.
func (fl *File) MapRef(ctx kernel.Ctx) {
	fl.ip.refs++
	fl.fs.gen.Bump()
}

// MapUnref drops the mapping reference taken by MapRef; the last drop
// writes back a dirty inode (and surfaces any latched write error the
// way close does).
func (fl *File) MapUnref(ctx kernel.Ctx) error {
	err := fl.fs.iput(ctx, fl.ip)
	if err == nil {
		err = fl.fs.cache.TakeWriteError(fl.fs.dev)
	}
	return err
}

// MapKey identifies the backing object: one VM object exists per
// (device, inode) no matter how many mappings share it.
func (fl *File) MapKey() (dev string, ino uint32) {
	return fl.fs.dev.DevName(), fl.ip.ino
}

// PageIn holds the buffer of logical block idx for a resident page, the
// page from now until PageRelease, and returns the physical block.
// Holes and pages past EOF have no block (0) — unless alloc is set: a
// write fault on a shared mapping gets a block from the non-zero-filling
// bmap a splice destination uses (§5.2). Such a block is fresh: nothing
// is read, and its buffer starts on the cache's zero block (a Load of no
// platter block: none is drawn until its first store) and is held as a
// delayed write from birth, because the platter still holds the previous
// owner's bytes.
func (fl *File) PageIn(ctx kernel.Ctx, idx int64, alloc bool) (blk int64, fresh bool, err error) {
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()
	pblk, fresh, err := ip.bmap(ctx, idx, alloc, false)
	if err != nil || pblk == 0 {
		return 0, false, err
	}
	c := fl.fs.cache
	var b *buf.Buf
	if fresh {
		b = c.Getblk(ctx, fl.fs.dev, int64(pblk))
		c.Load(b, nil)
	} else if b, err = c.Bread(ctx, fl.fs.dev, int64(pblk)); err != nil {
		return 0, false, err
	}
	c.Hold(ctx, b)
	if fresh {
		c.Dirty(ctx, b, 0, nil)
	}
	return int64(pblk), fresh, nil
}

// PageStore stores src at off into the held buffer of blk, a store
// through its page, and makes it a delayed write (buf.Cache.Dirty),
// reporting whether the buffer was clean. From here on it is write()
// data to the flushes, getblk and the sticky error latch.
func (fl *File) PageStore(ctx kernel.Ctx, blk int64, off int, src []byte) (clean bool) {
	return fl.fs.cache.Dirty(ctx, fl.fs.cache.Peek(fl.fs.dev, blk), off, src)
}

// PageLoad copies what blk's held buffer holds from off on into dst, a
// load through its page (buf.Cache.CopyOut); blk 0, a hole, reads zeros.
func (fl *File) PageLoad(blk int64, off int, dst []byte) {
	if blk == 0 {
		copy(dst, fl.fs.cache.ZeroBlock()[off:])
		return
	}
	fl.fs.cache.CopyOut(fl.fs.cache.Peek(fl.fs.dev, blk), off, dst)
}

// PageRelease lets go of the held buffer of blk, which stays cached; with
// evict set a delayed write starts now. It never sleeps.
func (fl *File) PageRelease(ctx kernel.Ctx, blk int64, evict bool) {
	fl.fs.cache.Unhold(ctx, fl.fs.cache.Peek(fl.fs.dev, blk), evict)
}

// PageBuffer returns the memory of blk's held buffer, or nil if no page
// holds it; blk 0, a hole, reads the cache's zero block.
func (fl *File) PageBuffer(blk int64) []byte {
	if blk == 0 {
		return fl.fs.cache.ZeroBlock()
	}
	if b := fl.fs.cache.Peek(fl.fs.dev, blk); b != nil && b.Flags&buf.BHeld != 0 {
		return b.Data
	}
	return nil
}

// PageFlush gives msync fsync's durability: every block of the file
// (the dirty held buffers of its pages included), the inode, and the
// inode-table block are forced to the platter, and any latched async
// write error on the device is surfaced. Works on a mapping whose
// descriptor is closed.
//
// Unlike fsync, msync only observes the sticky latch — it does not
// consume it. The latch is the device's last-writer error report, and a
// process msync'ing one mapping must not swallow the failure a
// concurrent fsync (or the eventual close) of the file that actually
// suffered it is entitled to see. msync still returns the real error
// exactly once per msync call, and the fsync path keeps its
// exactly-once consumption.
func (fl *File) PageFlush(ctx kernel.Ctx) error {
	if err := fl.syncInode(ctx); err != nil {
		return err
	}
	return fl.fs.cache.WriteError(fl.fs.dev)
}
