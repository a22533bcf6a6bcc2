package fs

import (
	"fmt"
	"sort"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/trace"
)

// FsckRepair is the repairing variant of Fsck (fsck -p): instead of
// only reporting inconsistencies it rewrites the volume into a
// consistent state, preferring to discard unsynced garbage over
// refusing to mount. It is what the crash-recovery path runs between
// power-up and remount. The repairs, in order:
//
//   - inodes with an invalid mode are zapped (returned to the free
//     pool);
//   - block pointers that point outside the data region, duplicate a
//     block already claimed, or hang off an unreadable indirect block
//     are cleared (first claim wins — with the ordered-metadata write
//     discipline a durably synced file's claims always land before any
//     competing reuse, so a dup can only involve unsynced data);
//   - directory sizes are truncated to whole entries, and entries that
//     name free, out-of-range, or zapped inodes — or carry a mangled
//     name — are cleared;
//   - unreachable (orphaned) inodes are zapped, cascading until the
//     reachability set is stable; a missing root directory is
//     recreated empty;
//   - link counts are reset to the observed reference counts;
//   - the allocation bitmap is rebuilt wholesale from the survivors'
//     block claims, and the superblock free counters from the bitmap
//     and inode table.
//
// Every repair is also recorded in the report's Problems list, and
// Repaired counts the individual fixes applied. All writes go through
// the cache and are flushed before return, so a follow-up Fsck sees a
// clean volume. Like Fsck it expects a quiescent device and reads each
// metadata block once per pass; only an inode it rewrites costs the
// table block one more lookup.
func FsckRepair(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device) (*FsckReport, error) {
	rep := &FsckReport{}

	sbuf, err := cache.Bread(ctx, dev, 0)
	if err != nil {
		return nil, err
	}
	var sb Superblock
	err = sb.decode(sbuf.Data)
	cache.Brelse(ctx, sbuf)
	if err != nil {
		// No geometry to work from: the superblock is only ever
		// rewritten in place with identical geometry, so this is
		// external corruption, not a crash artifact.
		return nil, fmt.Errorf("fs: unrepairable superblock: %w", err)
	}
	// A write error latched before repair began belongs to the
	// pre-repair world (the crash, or injected faults since cleared);
	// repair verifies its own writes with the final flush below.
	_ = cache.TakeWriteError(dev)

	sbDirty := false
	if int64(sb.TotalBlocks) != dev.DevBlocks() {
		rep.problemf("superblock: claims %d blocks, device has %d", sb.TotalBlocks, dev.DevBlocks())
		sb.TotalBlocks = uint32(dev.DevBlocks())
		sbDirty = true
		rep.Repaired++
	}
	if err := sb.checkGeometry(dev); err != nil {
		return nil, fmt.Errorf("fs: unrepairable superblock geometry: %v", err)
	}

	// Pass 1: sanitize every allocated inode's pointers. refs records
	// which inode first claimed each block; the claims of inodes zapped
	// later are dropped before the bitmap rebuild.
	refs := map[uint32]uint32{}
	allocated := map[uint32]*dinode{}
	dirtyIno := map[uint32]bool{}
	claim := func(ino, pblk uint32, what string) bool {
		if pblk < sb.DataStart || pblk >= sb.TotalBlocks {
			rep.problemf("inode %d: %s block %d outside data region (cleared)", ino, what, pblk)
			return false
		}
		if prev, dup := refs[pblk]; dup {
			rep.problemf("inode %d: %s block %d already referenced by inode %d (cleared)", ino, what, pblk, prev)
			return false
		}
		refs[pblk] = ino
		return true
	}
	err = walkInodes(ctx, cache, dev, &sb, func(ino uint32, di *dinode) error {
		if di.mode != ModeFile && di.mode != ModeDir {
			rep.problemf("inode %d: invalid mode %d (zapped)", ino, di.mode)
			rep.Repaired++
			return writeDinode(ctx, cache, dev, &sb, ino, &dinode{}, false)
		}
		if di.size < 0 {
			rep.problemf("inode %d: negative size %d (reset)", ino, di.size)
			di.size = 0
			dirtyIno[ino] = true
			rep.Repaired++
		}
		if di.mode == ModeDir && di.size%DirentSize != 0 {
			rep.problemf("dir inode %d: torn size %d (truncated)", ino, di.size)
			di.size -= di.size % DirentSize
			dirtyIno[ino] = true
			rep.Repaired++
		}
		// Keep only the pointers this inode can claim; an unreadable
		// pointer block gives its claim back, and is cleared with
		// everything under it.
		scanned := *di
		walkTree(ctx, cache, dev, &sb, di, func(blk uint32, what string, err error) bool {
			if err != nil {
				rep.problemf("inode %d: unreadable %s block %d (cleared)", ino, what, blk)
				delete(refs, blk)
			} else if claim(ino, blk, what) {
				return true
			}
			rep.Repaired++
			return false
		})
		if *di != scanned {
			dirtyIno[ino] = true
		}
		allocated[ino] = di
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A volume must always come back mountable: if the root directory
	// itself is gone, recreate it empty, without what it claimed.
	if di, ok := allocated[RootIno]; !ok || di.mode != ModeDir {
		rep.problemf("root inode missing or not a directory (recreated empty)")
		allocated[RootIno] = &dinode{mode: ModeDir, nlink: 1}
		dirtyIno[RootIno] = true
		rep.Repaired++
		for blk, ino := range refs {
			if ino == RootIno {
				delete(refs, blk)
			}
		}
	}

	// Pass 2: directory scrub and reachability, to a fixpoint. Each
	// round clears entries naming inodes that are free or were zapped
	// in an earlier round, or that carry an empty (mangled) name; valid
	// entries feed the link counts. Then it zaps inodes no surviving
	// directory references (orphans). Zapping a directory can orphan its
	// children, hence the loop; it terminates because each round
	// strictly shrinks the allocated set.
	var links map[uint32]int
	for {
		links = map[uint32]int{}
		for _, ino := range sortedInos(allocated) {
			di := allocated[ino]
			if di.mode != ModeDir {
				continue
			}
			err := walkDir(ctx, cache, dev, &sb, di, func(de dirent) bool {
				_, ok := allocated[de.Ino]
				switch {
				case !ok:
					rep.problemf("dir inode %d: entry %q points to unallocated inode %d (cleared)", ino, de.Name, de.Ino)
				case len(de.Name) == 0:
					rep.problemf("dir inode %d: entry for inode %d has invalid name (cleared)", ino, de.Ino)
				default:
					links[de.Ino]++
					return false
				}
				rep.Repaired++
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		zapped := false
		for _, ino := range sortedInos(allocated) {
			if ino == RootIno {
				continue
			}
			if links[ino] == 0 {
				rep.problemf("inode %d: orphaned (zapped)", ino)
				if err := writeDinode(ctx, cache, dev, &sb, ino, &dinode{}, false); err != nil {
					return nil, err
				}
				delete(allocated, ino)
				delete(dirtyIno, ino)
				rep.Repaired++
				zapped = true
			}
		}
		if !zapped {
			break
		}
	}

	// Link counts from the surviving reference graph.
	for _, ino := range sortedInos(allocated) {
		di := allocated[ino]
		want := links[ino]
		if ino == RootIno {
			want++ // the root is referenced by convention, not a dirent
		}
		if int(di.nlink) != want {
			rep.problemf("inode %d: link count %d, referenced %d time(s) (fixed)", ino, di.nlink, want)
			di.nlink = uint16(want)
			dirtyIno[ino] = true
			rep.Repaired++
		}
		rep.Inodes++
		if di.mode == ModeDir {
			rep.Dirs++
		} else {
			rep.Files++
		}
	}

	// Write back every repaired inode.
	for _, ino := range sortedInos(allocated) {
		if dirtyIno[ino] {
			if err := writeDinode(ctx, cache, dev, &sb, ino, allocated[ino], false); err != nil {
				return nil, err
			}
		}
	}

	// The survivors' pointers are sanitized, and each block they
	// reference is one of the claims pass 1 accepted, so the claims of
	// the inodes zapped since are all the reference walk must drop.
	for blk, ino := range refs {
		if _, ok := allocated[ino]; !ok {
			delete(refs, blk)
		}
	}
	rep.UsedBlocks = len(refs)

	// Pass 3: rebuild the bitmap — a bit is set iff the block is
	// metadata (below the data region) or referenced by a survivor.
	err = walkBitmap(ctx, cache, dev, &sb, 0, sb.TotalBlocks, func(blk uint32, marked bool) bool {
		owner, referenced := refs[blk]
		want := referenced || blk < sb.DataStart
		switch {
		case marked == want:
			return want
		case want:
			rep.problemf("block %d: referenced by inode %d but free in bitmap (marked)", blk, owner)
		default:
			rep.problemf("block %d: marked in-use but unreferenced (freed)", blk)
		}
		rep.Repaired++
		return want
	})
	if err != nil {
		return nil, err
	}

	// Superblock counters from the rebuilt state.
	dataBlocks := sb.TotalBlocks - sb.DataStart
	if wantFree := dataBlocks - uint32(rep.UsedBlocks); sb.FreeBlocks != wantFree {
		rep.problemf("superblock: free-block count %d, bitmap says %d (fixed)", sb.FreeBlocks, wantFree)
		sb.FreeBlocks = wantFree
		sbDirty = true
		rep.Repaired++
	}
	if wantFreeInodes := sb.NInodes - uint32(rep.Inodes) - 1; sb.FreeInodes != wantFreeInodes {
		rep.problemf("superblock: free-inode count %d, table says %d (fixed)", sb.FreeInodes, wantFreeInodes)
		sb.FreeInodes = wantFreeInodes
		sbDirty = true
		rep.Repaired++
	}
	if sbDirty {
		b, err := cache.Bread(ctx, dev, 0)
		if err != nil {
			return nil, err
		}
		sb.encode(cache.Store(b, false))
		cache.Bdwrite(ctx, b)
	}

	// Push every repair to the platter before anyone remounts.
	if _, err := cache.FlushDev(ctx, dev); err != nil {
		return nil, err
	}
	if err := cache.TakeWriteError(dev); err != nil {
		return nil, err
	}
	ctx.Kern().TraceEmit(trace.KindFSRepair, 0, int64(len(rep.Problems)), int64(rep.Repaired), dev.DevName())
	return rep, nil
}

func sortedInos(m map[uint32]*dinode) []uint32 {
	inos := make([]uint32, 0, len(m))
	for ino := range m {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return inos
}
