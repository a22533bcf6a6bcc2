package fs

import (
	"encoding/binary"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// Inode is the in-core inode: the on-disk fields plus reference count,
// dirty flag, and a sleep lock serialising modifications across the
// blocking points inside filesystem operations.
type Inode struct {
	fs     *FS
	ino    uint32
	mode   uint16
	nlink  uint16
	size   int64
	direct [NDirect]uint32
	indir  uint32
	dindir uint32

	refs    int
	dirty   bool
	locked  bool
	lockers int

	// Adaptive readahead state (see File.Read). raNext is the byte
	// offset where the last read ended — a read starting there is
	// sequential. raWindow is the current window in blocks (0 after any
	// seek); raAhead is the highest logical block a readahead has been
	// issued for, so overlapping windows never re-issue fetches.
	raNext   int64
	raWindow int
	raAhead  int64
}

// Ino returns the inode number.
func (ip *Inode) Ino() uint32 { return ip.ino }

// Size returns the file size in bytes.
func (ip *Inode) Size() int64 { return ip.size }

// IsDir reports whether the inode is a directory.
func (ip *Inode) IsDir() bool { return ip.mode == ModeDir }

// lock acquires the inode sleep lock (ILOCK).
func (ip *Inode) lock(ctx kernel.Ctx) {
	for ip.locked {
		if !ctx.CanSleep() {
			panic("fs: inode lock contention at interrupt level")
		}
		ip.lockers++
		_ = ctx.Sleep(ip, kernel.PINOD)
		ip.lockers--
	}
	ip.locked = true
}

func (ip *Inode) unlock() {
	if !ip.locked {
		panic("fs: unlock of unlocked inode")
	}
	ip.locked = false
	if ip.lockers > 0 {
		ip.fs.k.Wakeup(ip)
	}
}

// ptrsPerBlock returns how many block pointers fit in one block.
func (f *FS) ptrsPerBlock() int64 { return int64(f.sb.BlockSize) / 4 }

// bmap translates a logical file block to a physical device block.
// With alloc=false it returns 0 for holes (never allocating). With
// alloc=true, missing blocks (and any needed indirect blocks) are
// allocated; zeroFill additionally creates a zero-filled delayed-write
// buffer for a freshly allocated data block, which is what the standard
// write path does for partial blocks. The paper's "special version of
// bmap()" used to map the splice destination is exactly bmap with
// alloc=true, zeroFill=false (§5.2).
func (ip *Inode) bmap(ctx kernel.Ctx, lblk int64, alloc, zeroFill bool) (uint32, error) {
	f := ip.fs
	if lblk < 0 {
		return 0, kernel.ErrInval
	}
	ppb := f.ptrsPerBlock()
	switch {
	case lblk < NDirect:
		pblk := ip.direct[lblk]
		if pblk == 0 && alloc {
			var err error
			pblk, err = f.allocData(ctx, zeroFill)
			if err != nil {
				return 0, err
			}
			ip.direct[lblk] = pblk
			ip.dirty = true
		}
		return pblk, nil

	case lblk < NDirect+ppb:
		idx := lblk - NDirect
		pblk, err := ip.indirectLookup(ctx, &ip.indir, idx, alloc, zeroFill)
		return pblk, err

	case lblk < NDirect+ppb+ppb*ppb:
		idx := lblk - NDirect - ppb
		// First level: which indirect block within the double-indirect.
		l1 := idx / ppb
		l2 := idx % ppb
		// Resolve the level-1 pointer block.
		if ip.dindir == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := f.allocPtrBlock(ctx)
			if err != nil {
				return 0, err
			}
			ip.dindir = blk
			ip.dirty = true
		}
		l1ptr, err := f.ptrAt(ctx, ip.dindir, l1, alloc)
		if err != nil || l1ptr == 0 {
			return 0, err
		}
		var l1copy = l1ptr
		return ip.indirectLookup(ctx, &l1copy, l2, alloc, zeroFill)

	default:
		return 0, kernel.ErrFileTooBig
	}
}

// indirectLookup resolves index idx within the single-indirect block
// *slot, allocating the pointer block and/or the data block as
// requested. *slot is updated if the pointer block is allocated.
func (ip *Inode) indirectLookup(ctx kernel.Ctx, slot *uint32, idx int64, alloc, zeroFill bool) (uint32, error) {
	f := ip.fs
	if *slot == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := f.allocPtrBlock(ctx)
		if err != nil {
			return 0, err
		}
		*slot = blk
		ip.dirty = true
	}
	b, err := f.cache.Bread(ctx, f.dev, int64(*slot))
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	pblk := le.Uint32(b.Data[idx*4:])
	if pblk == 0 && alloc {
		pblk, err = f.allocData(ctx, zeroFill)
		if err != nil {
			f.cache.Brelse(ctx, b)
			return 0, err
		}
		le.PutUint32(b.Data[idx*4:], pblk)
		f.cache.Bdwrite(ctx, b)
		return pblk, nil
	}
	f.cache.Brelse(ctx, b)
	return pblk, nil
}

// ptrAt reads (allocating if requested) entry idx of the pointer block
// blk, used for the double-indirect level-1 table.
func (f *FS) ptrAt(ctx kernel.Ctx, blk uint32, idx int64, alloc bool) (uint32, error) {
	b, err := f.cache.Bread(ctx, f.dev, int64(blk))
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	p := le.Uint32(b.Data[idx*4:])
	if p == 0 && alloc {
		p, err = f.allocPtrBlock(ctx)
		if err != nil {
			f.cache.Brelse(ctx, b)
			return 0, err
		}
		le.PutUint32(b.Data[idx*4:], p)
		f.cache.Bdwrite(ctx, b)
		return p, nil
	}
	f.cache.Brelse(ctx, b)
	return p, nil
}

// bmapRange maps logical blocks [start, end] without allocating (holes
// map to 0), reading each pointer block once for the whole range
// instead of once per block. This is the readahead issue path's bulk
// bmap: 4.3BSD's bmap computed the readahead block from the indirect
// block it had already read for the demand block for the same reason —
// mapping a window must not cost a pointer-block lookup per block.
// Double-indirect blocks fall back to the per-block path (readahead
// windows are small; crossing into the double-indirect range mid-window
// is rare).
func (ip *Inode) bmapRange(ctx kernel.Ctx, start, end int64) ([]uint32, error) {
	f := ip.fs
	ppb := f.ptrsPerBlock()
	le := binary.LittleEndian
	out := make([]uint32, 0, end-start+1)
	var held *buf.Buf
	release := func() {
		if held != nil {
			f.cache.Brelse(ctx, held)
			held = nil
		}
	}
	for l := start; l <= end; l++ {
		switch {
		case l < 0:
			release()
			return nil, kernel.ErrInval
		case l < NDirect:
			out = append(out, ip.direct[l])
		case l < NDirect+ppb:
			if ip.indir == 0 {
				out = append(out, 0)
				continue
			}
			if held == nil {
				b, err := f.cache.Bread(ctx, f.dev, int64(ip.indir))
				if err != nil {
					return nil, err
				}
				held = b
			}
			out = append(out, le.Uint32(held.Data[(l-NDirect)*4:]))
		default:
			release()
			pblk, err := ip.bmap(ctx, l, false, false)
			if err != nil {
				return nil, err
			}
			out = append(out, pblk)
		}
	}
	release()
	return out, nil
}

// clearPtr zeroes the inode's pointer to logical block lblk, making it
// a hole again (pointer blocks on the path are left in place; they are
// referenced by the inode and reused by the next extension). Used by
// the write path's mid-call rollback.
func (ip *Inode) clearPtr(ctx kernel.Ctx, lblk int64) error {
	f := ip.fs
	ppb := f.ptrsPerBlock()
	switch {
	case lblk < NDirect:
		ip.direct[lblk] = 0
		ip.dirty = true
		return nil
	case lblk < NDirect+ppb:
		if ip.indir == 0 {
			return nil
		}
		return f.zeroPtrAt(ctx, ip.indir, lblk-NDirect)
	case lblk < NDirect+ppb+ppb*ppb:
		idx := lblk - NDirect - ppb
		if ip.dindir == 0 {
			return nil
		}
		l1, err := f.ptrAt(ctx, ip.dindir, idx/ppb, false)
		if err != nil || l1 == 0 {
			return err
		}
		return f.zeroPtrAt(ctx, l1, idx%ppb)
	}
	return kernel.ErrInval
}

// zeroPtrAt clears entry idx of pointer block blk.
func (f *FS) zeroPtrAt(ctx kernel.Ctx, blk uint32, idx int64) error {
	b, err := f.cache.Bread(ctx, f.dev, int64(blk))
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b.Data[idx*4:], 0)
	f.cache.Bdwrite(ctx, b)
	return nil
}

// allocData allocates a data block. When zeroFill is set the block gets
// a zero-filled delayed-write buffer, as the standard write path does —
// the cost splice's special bmap avoids.
func (f *FS) allocData(ctx kernel.Ctx, zeroFill bool) (uint32, error) {
	blk, err := f.allocBlock(ctx)
	if err != nil {
		return 0, err
	}
	if zeroFill {
		b := f.cache.Getblk(ctx, f.dev, int64(blk))
		for i := range b.Data {
			b.Data[i] = 0
		}
		f.cache.Bdwrite(ctx, b)
	}
	return blk, nil
}

// allocPtrBlock allocates a zeroed indirect-pointer block. Pointer
// blocks must always be zeroed so absent entries read as holes.
func (f *FS) allocPtrBlock(ctx kernel.Ctx) (uint32, error) {
	blk, err := f.allocBlock(ctx)
	if err != nil {
		return 0, err
	}
	b := f.cache.Getblk(ctx, f.dev, int64(blk))
	for i := range b.Data {
		b.Data[i] = 0
	}
	f.cache.Bdwrite(ctx, b)
	return blk, nil
}

// truncate frees every data and indirect block beyond size newSize
// (only newSize==0 is used today, by unlink and O_TRUNC). Ordered
// metadata: the block list is gathered first, then the cleared inode
// is written synchronously, and only then do the blocks return to the
// bitmap — the platter never carries a stale claim on a block another
// file could reallocate, which is what lets the repairing fsck keep
// every fsync'd file byte-exact after a crash.
func (ip *Inode) truncate(ctx kernel.Ctx, newSize int64) error {
	f := ip.fs
	if newSize != 0 {
		return kernel.ErrInval
	}
	blocks, err := ip.collectBlocks(ctx)
	if err != nil {
		return err
	}
	for i := range ip.direct {
		ip.direct[i] = 0
	}
	ip.indir = 0
	ip.dindir = 0
	ip.size = 0
	ip.dirty = true
	// The file's contents are gone; any sequential-access history is
	// meaningless (and raAhead could point past the new EOF).
	ip.raNext = 0
	ip.raWindow = 0
	ip.raAhead = 0
	if err := f.iupdateSync(ctx, ip); err != nil {
		return err
	}
	for _, blk := range blocks {
		if err := f.freeBlock(ctx, blk); err != nil {
			return err
		}
	}
	return nil
}

// collectBlocks gathers every physical block the inode owns — data,
// single- and double-indirect pointer blocks — in deterministic walk
// order.
func (ip *Inode) collectBlocks(ctx kernel.Ctx) ([]uint32, error) {
	f := ip.fs
	var out []uint32
	for _, blk := range ip.direct {
		if blk != 0 {
			out = append(out, blk)
		}
	}
	var err error
	if ip.indir != 0 {
		if out, err = f.collectPtrBlock(ctx, ip.indir, 1, out); err != nil {
			return nil, err
		}
	}
	if ip.dindir != 0 {
		if out, err = f.collectPtrBlock(ctx, ip.dindir, 2, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// collectPtrBlock appends a pointer block and everything below it
// (depth 1 = entries are data blocks; depth 2 = entries are pointer
// blocks) to out.
func (f *FS) collectPtrBlock(ctx kernel.Ctx, blk uint32, depth int, out []uint32) ([]uint32, error) {
	b, err := f.cache.Bread(ctx, f.dev, int64(blk))
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	ppb := f.ptrsPerBlock()
	entries := make([]uint32, 0, 32)
	for i := int64(0); i < ppb; i++ {
		if p := le.Uint32(b.Data[i*4:]); p != 0 {
			entries = append(entries, p)
		}
	}
	f.cache.Brelse(ctx, b)
	for _, p := range entries {
		if depth > 1 {
			if out, err = f.collectPtrBlock(ctx, p, depth-1, out); err != nil {
				return nil, err
			}
		} else {
			out = append(out, p)
		}
	}
	return append(out, blk), nil
}

// PhysicalBlocks returns the complete table of physical block numbers
// backing the first nblocks logical blocks of the file — built, as the
// paper describes, "by successive calls to bmap()" (§5.2). Holes map to
// physical block 0. When alloc is set, missing destination blocks are
// allocated with the special non-zero-filling bmap.
func (ip *Inode) PhysicalBlocks(ctx kernel.Ctx, nblocks int64, alloc bool) ([]uint32, error) {
	table := make([]uint32, nblocks)
	for l := int64(0); l < nblocks; l++ {
		pblk, err := ip.bmap(ctx, l, alloc, false)
		if err != nil {
			return nil, err
		}
		table[l] = pblk
	}
	return table, nil
}
