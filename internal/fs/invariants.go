package fs

import (
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// This file implements the filesystem's live invariant checker used by
// the simcheck harness. Unlike Fsck — which reads the whole volume and
// needs process context — CheckLive inspects only in-core state, so it
// never sleeps and is callable between events from the kernel's
// scheduling loop.
//
// Invariant catalog (filesystem, in-core):
//
//	fs-inode-key        the inode table key matches the inode's number
//	fs-inode-refs       reference counts never go negative (refs == 0 is
//	                    legal transiently while iput tears an inode down)
//	fs-inode-mode       mode is file, directory, or free-pending-unlink
//	fs-inode-size       file size is non-negative
//	fs-ptr-bounds       every block pointer is 0 or inside the data region
//	fs-ptr-dup          no data block claimed by two in-core inodes
//	fs-super-counts     free-block/inode counters within volume bounds
//
// Cross-inode duplicate detection covers only in-core inodes; the full
// on-disk check (bitmap cross-check, directory connectivity) is Fsck's
// job and runs at end of workload, on a quiescent volume.

// claim records that in-core inode ino claimed a physical block during
// CheckLive pass number pass; a slot stamped by an earlier pass is free.
type claim struct {
	pass uint64
	ino  uint32
}

// CheckLive verifies the in-core filesystem invariants, returning the
// first violation found (nil when consistent). It performs no I/O and,
// once its per-block scratch exists, allocates nothing; inodes are
// visited in iget order. It walks when the filesystem's generation
// moved since its last passing walk (kernel.Gen).
func (f *FS) CheckLive() error {
	return f.gen.Check("fs", 0, f.checkLive, f.digest)
}

// Release gives the claim table back to sim's recycler, when the
// machine ends or a recovery replaces this in-core filesystem; a later
// CheckLive draws another.
func (f *FS) Release() {
	sim.RestTable(f.claims)
	f.claims = nil
}

func (f *FS) checkLive() error {
	if len(f.live) != len(f.inodes) {
		return kernel.Violation("fs-inode-key", "inode table holds %d inodes, the in-core list %d", len(f.inodes), len(f.live))
	}
	if f.claims == nil {
		f.claims = sim.NewTable[claim](int(f.sb.TotalBlocks))
	}
	f.ckPass++
	for _, ip := range f.live {
		ino := ip.ino
		if f.inodes[ino] != ip {
			return kernel.Violation("fs-inode-key", "in-core inode %d is not the table's entry for that number", ino)
		}
		if ip.refs < 0 {
			return kernel.Violation("fs-inode-refs", "inode %d in core with refs %d", ino, ip.refs)
		}
		// ModeFree appears transiently while iput tears down an
		// unlinked inode; anything else is corruption.
		if ip.mode != ModeFile && ip.mode != ModeDir && ip.mode != ModeFree {
			return kernel.Violation("fs-inode-mode", "inode %d has invalid mode %d", ino, ip.mode)
		}
		if ip.size < 0 {
			return kernel.Violation("fs-inode-size", "inode %d has negative size %d", ino, ip.size)
		}
		for _, pblk := range ip.direct {
			if pblk == 0 {
				continue // a hole; most of a small file's pointers
			}
			if err := f.checkPtr(ino, pblk, "direct"); err != nil {
				return err
			}
		}
		if err := f.checkPtr(ino, ip.indir, "indirect"); err != nil {
			return err
		}
		if err := f.checkPtr(ino, ip.dindir, "double-indirect"); err != nil {
			return err
		}
	}

	dataBlocks := f.sb.TotalBlocks - f.sb.DataStart
	if f.sb.FreeBlocks > dataBlocks {
		return kernel.Violation("fs-super-counts", "free blocks %d exceed data region %d", f.sb.FreeBlocks, dataBlocks)
	}
	if f.sb.FreeInodes > f.sb.NInodes {
		return kernel.Violation("fs-super-counts", "free inodes %d exceed table size %d", f.sb.FreeInodes, f.sb.NInodes)
	}
	return nil
}

// digest folds in what checkLive reads.
func (f *FS) digest(d *kernel.Digest) {
	d.Int(int64(len(f.inodes)))
	for _, ip := range f.live {
		kernel.Ptr(d, ip)
		d.Int(int64(ip.ino))
		d.Bool(f.inodes[ip.ino] == ip)
		d.Int(int64(ip.refs))
		d.Int(int64(ip.mode))
		d.Int(ip.size)
		for _, p := range ip.direct {
			d.Int(int64(p))
		}
		d.Int(int64(ip.indir))
		d.Int(int64(ip.dindir))
	}
	d.Int(int64(f.sb.DataStart))
	d.Int(int64(f.sb.TotalBlocks))
	d.Int(int64(f.sb.FreeBlocks))
	d.Int(int64(f.sb.FreeInodes))
	d.Int(int64(f.sb.NInodes))
}

// checkPtr validates one block pointer of inode ino and claims the
// block for it in the current pass.
func (f *FS) checkPtr(ino, pblk uint32, what string) error {
	if pblk == 0 {
		return nil
	}
	if pblk < f.sb.DataStart || pblk >= f.sb.TotalBlocks {
		return kernel.Violation("fs-ptr-bounds", "inode %d: %s block %d outside data region [%d,%d)",
			ino, what, pblk, f.sb.DataStart, f.sb.TotalBlocks)
	}
	if c := f.claims[pblk]; c.pass == f.ckPass {
		return kernel.Violation("fs-ptr-dup", "block %d claimed by inodes %d and %d", pblk, c.ino, ino)
	}
	f.claims[pblk] = claim{f.ckPass, ino}
	return nil
}
