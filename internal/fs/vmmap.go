package fs

import (
	"kdp/internal/kernel"
)

// VM backing-store hooks: internal/vm pages mapped files in and out
// through these methods, which alias mapped pages with buffer-cache
// blocks (a pagein is a Bread, a pageout is a delayed write). The two
// packages meet structurally — *File satisfies vm.Backing and vm.Pool
// satisfies fs.Pager — so neither imports the other, mirroring how the
// real unified caches keep the VM and file systems at arm's length.

// Pager is the dirty-mapped-page writeback hook a VM page pool
// implements (structurally: *vm.Pool). fsync and SyncAll call it so
// stores made through shared mappings reach the platter under the same
// durability contract as write().
type Pager interface {
	// PageoutObject writes every dirty resident page of the object
	// (dev, ino) into the buffer cache as delayed writes.
	PageoutObject(ctx kernel.Ctx, dev string, ino uint32) error
	// DirtyInos returns the inode numbers on dev with dirty resident
	// pages, ascending.
	DirtyInos(dev string) []uint32
}

// SetPager registers the VM writeback hook. Without one, fsync/SyncAll
// cover only write() I/O, as a kernel built without VM would.
func (f *FS) SetPager(p Pager) { f.pager = p }

// Pager returns the registered VM writeback hook, or nil.
func (f *FS) Pager() Pager { return f.pager }

// MapRef takes a mapping reference on the file's inode. A mapping
// outlives the descriptor it was created from (closing the fd must not
// tear down the mapping), so the VM holds its own inode reference from
// Mmap until the last Munmap.
func (fl *File) MapRef(ctx kernel.Ctx) {
	fl.ip.refs++
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

// PageIn fills dst (one page, equal to the filesystem block size) with
// the contents of logical block idx, returning the physical block the
// page now aliases. Holes and pages past EOF read as zeros with no
// block (0) — unless alloc is set: a write fault on a shared mapping
// must have a block to page out to, and gets one from the
// non-zero-filling bmap a splice destination uses (§5.2). Such a block
// is fresh: nothing was read, nothing entered the buffer cache, dst is
// untouched, and the platter still holds the previous owner's bytes —
// the caller's page is the block's only copy until it is paged out.
func (fl *File) PageIn(ctx kernel.Ctx, idx int64, dst []byte, alloc bool) (blk int64, fresh bool, err error) {
	ip := fl.ip
	ip.lock(ctx)
	defer ip.unlock()
	pblk, fresh, err := ip.bmap(ctx, idx, alloc, false)
	if err != nil || fresh {
		return int64(pblk), fresh, err
	}
	if pblk == 0 {
		clear(dst)
		return 0, false, nil
	}
	b, err := fl.fs.cache.Bread(ctx, fl.fs.dev, int64(pblk))
	if err != nil {
		return 0, false, err
	}
	copy(dst, b.Data)
	fl.fs.cache.Brelse(ctx, b)
	return int64(pblk), false, nil
}

// PageOut writes a dirty mapped page back into the buffer cache as a
// delayed write on its aliased block — from here on it is
// indistinguishable from write() data: a sync or getblk's recycling
// writes it, and an async write failure latches the sticky per-device
// error that the next msync/fsync/close reports.
func (fl *File) PageOut(ctx kernel.Ctx, blk int64, src []byte) error {
	b := fl.fs.cache.Getblk(ctx, fl.fs.dev, blk)
	copy(b.Data, src)
	fl.fs.cache.Bdwrite(ctx, b)
	return nil
}

// PageFlush gives msync fsync's durability: every block of the file
// (the pages the caller just paged out included), the inode, and the
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
