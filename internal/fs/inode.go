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

// bmap translates logical file block lblk to its physical block. It is
// the one walk of the pointer tree that every reader of the block map
// takes, as 4.4BSD's ufs_bmaparray is. With alloc=false a hole maps to
// 0 and nothing is allocated. With alloc=true a hole, and any pointer
// block on the way to it, gets a block, and fresh reports that this
// call allocated the data block: the platter still holds its previous
// owner's bytes. zeroFill additionally gives a fresh block a
// zero-filled delayed-write buffer, which is what the standard write
// path does for partial blocks. The paper's "special version of
// bmap()" used to map the splice destination is exactly bmap with
// alloc=true, zeroFill=false (§5.2), fresh telling the caller which
// blocks it must write whole.
func (ip *Inode) bmap(ctx kernel.Ctx, lblk int64, alloc, zeroFill bool) (pblk uint32, fresh bool, err error) {
	s, ok, err := ip.walk(ctx, lblk, alloc)
	if !ok {
		return 0, false, err
	}
	pblk = s.get()
	if pblk == 0 && alloc {
		if pblk, err = ip.fs.allocData(ctx, zeroFill); err != nil {
			s.release(ctx)
			return 0, false, err
		}
		s.set(pblk)
		fresh = true
	}
	s.release(ctx)
	return pblk, fresh, nil
}

// clearPtr makes logical block lblk a hole again and returns the block
// it pointed at (0 if it already was a hole). Pointer blocks on the
// path are left in place: the inode references them and the next
// extension reuses them. Used by the write path's rollback.
func (ip *Inode) clearPtr(ctx kernel.Ctx, lblk int64) (uint32, error) {
	s, ok, err := ip.walk(ctx, lblk, false)
	if !ok {
		return 0, err
	}
	old := s.get()
	if old != 0 {
		s.set(0)
	}
	s.release(ctx)
	return old, nil
}

// slot is where one block pointer lives: the inode's own pointer i (b
// nil; see root) or entry i of pointer block b, which is held until
// release — a delayed write if set changed it.
type slot struct {
	ip      *Inode
	b       *buf.Buf
	i       int64
	changed bool
}

// root returns the inode's pointer i: direct block i below NDirect,
// then the single- and the double-indirect block.
func (ip *Inode) root(i int64) *uint32 {
	switch i {
	case NDirect:
		return &ip.indir
	case NDirect + 1:
		return &ip.dindir
	}
	return &ip.direct[i]
}

func (s *slot) get() uint32 {
	if s.b == nil {
		return *s.ip.root(s.i)
	}
	return binary.LittleEndian.Uint32(s.b.Data[s.i*4:])
}

func (s *slot) set(p uint32) {
	if s.b == nil {
		*s.ip.root(s.i) = p
		s.ip.dirty = true
		return
	}
	binary.LittleEndian.PutUint32(s.b.Data[s.i*4:], p)
	s.changed = true
}

func (s *slot) release(ctx kernel.Ctx) {
	switch c := s.ip.fs.cache; {
	case s.b == nil:
	case s.changed:
		c.Bdwrite(ctx, s.b)
	default:
		c.Brelse(ctx, s.b)
	}
	s.b, s.changed = nil, false
}

// walk descends the pointer tree to the slot holding lblk's block
// pointer, reading one pointer block per level. A pointer block missing
// on the way is allocated (zeroed) when alloc is set; otherwise ok is
// false and lblk is a hole.
func (ip *Inode) walk(ctx kernel.Ctx, lblk int64, alloc bool) (s slot, ok bool, err error) {
	f := ip.fs
	ppb := f.ptrsPerBlock()
	s.ip = ip
	var path [2]int64 // entry index in each pointer block below the root
	var depth int
	switch {
	case lblk < 0:
		return s, false, kernel.ErrInval
	case lblk < NDirect:
		s.i = lblk
	case lblk < NDirect+ppb:
		s.i, path[0], depth = NDirect, lblk-NDirect, 1
	case lblk < NDirect+ppb+ppb*ppb:
		idx := lblk - NDirect - ppb
		s.i, path[0], path[1], depth = NDirect+1, idx/ppb, idx%ppb, 2
	default:
		return s, false, kernel.ErrFileTooBig
	}
	for _, next := range path[:depth] {
		p := s.get()
		if p == 0 {
			if !alloc {
				s.release(ctx)
				return s, false, nil
			}
			if p, err = f.allocPtrBlock(ctx); err != nil {
				s.release(ctx)
				return s, false, err
			}
			s.set(p)
		}
		s.release(ctx)
		if s.b, err = f.cache.Bread(ctx, f.dev, int64(p)); err != nil {
			return s, false, err
		}
		s.i = next
	}
	return s, true, nil
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
			pblk, _, err := ip.bmap(ctx, l, false, false)
			if err != nil {
				return nil, err
			}
			out = append(out, pblk)
		}
	}
	release()
	return out, nil
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
