package fs

import (
	"slices"
	"sort"
	"strings"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/trace"
)

// FS is a mounted filesystem instance. It implements kernel.FileSystem.
type FS struct {
	k     *kernel.Kernel
	cache *buf.Cache
	dev   buf.Device
	sb    Superblock

	inodes     map[uint32]*Inode
	blkRotor   uint32 // next data block to try allocating
	inoRotor   uint32
	sbDirty    bool
	interleave uint32 // allocation stride (FFS rotdelay layout); 1 = dense
	raMax      int    // per-file readahead window cap, in blocks
	pager      Pager  // VM writeback hook (see SetPager); nil without VM
	siteAlloc  kernel.FaultSite

	// CheckLive's view (invariants.go): the in-core inodes again, in
	// iget order, so the walk needs no map iteration; its per-block
	// scratch; and the pass counter that stamps it.
	live   []*Inode
	claims []claim
	ckPass uint64
}

// DefaultReadahead is the default cap on a file's readahead window, in
// blocks. The default of one block matches the 4.3BSD read path the
// paper's measured system ran (breada's single asynchronous block), so
// the Table 1/2 reproduction stays faithful; deeper adaptive windows
// are opt-in via SetReadahead and are explored by the kdpbench cache
// sweep.
const DefaultReadahead = 1

// Mount reads the superblock of dev and returns the mounted filesystem.
func Mount(ctx kernel.Ctx, cache *buf.Cache, dev buf.Device) (*FS, error) {
	if cache.BlockSize() != dev.DevBlockSize() {
		return nil, kernel.ErrInval
	}
	f := &FS{
		k:         ctx.Kern(),
		cache:     cache,
		dev:       dev,
		inodes:    make(map[uint32]*Inode),
		raMax:     DefaultReadahead,
		siteAlloc: "fs." + dev.DevName() + ".nospace",
	}
	b, err := cache.Bread(ctx, dev, 0)
	if err != nil {
		return nil, err
	}
	err = f.sb.decode(b.Data)
	cache.Brelse(ctx, b)
	if err != nil {
		return nil, err
	}
	f.blkRotor = f.sb.DataStart
	f.inoRotor = RootIno + 1
	return f, nil
}

// Cache returns the buffer cache the filesystem uses.
func (f *FS) Cache() *buf.Cache { return f.cache }

// Super returns a copy of the superblock.
func (f *FS) Super() Superblock { return f.sb }

// BlockSize returns the filesystem block size.
func (f *FS) BlockSize() int { return int(f.sb.BlockSize) }

// SetReadahead caps every file's adaptive readahead window at n blocks
// (see File.Read). n <= 0 disables readahead issue from this
// filesystem entirely. The window is additionally clamped by the
// buffer cache's global readahead budget.
func (f *FS) SetReadahead(n int) {
	if n < 0 {
		n = 0
	}
	f.raMax = n
}

// Readahead returns the per-file readahead window cap.
func (f *FS) Readahead() int { return f.raMax }

// SetInterleave sets the block-allocation stride, modelling the FFS
// rotdelay layout policy: consecutive logical blocks of a file are
// placed n physical blocks apart so the CPU has time to turn a transfer
// around before the next block rotates under the head. 4.2BSD-era
// filesystems used an interleave of 2, which is why their sequential
// bandwidth was roughly half the media rate. n < 1 is treated as 1.
func (f *FS) SetInterleave(n int) {
	if n < 1 {
		n = 1
	}
	f.interleave = uint32(n)
}

// ---- block allocator ----

// AllocSite returns the filesystem's allocator-exhaustion fault site ID
// ("fs.<dev>.nospace"): every block allocation is one eligible
// occurrence, and a fire makes it fail with ErrNoSpace as if the bitmap
// scan had come up empty.
func (f *FS) AllocSite() kernel.FaultSite { return f.siteAlloc }

// allocBlock finds, marks and returns a free data block. The bitmap is
// accessed through the buffer cache, so allocation costs real I/O when
// the bitmap block is not resident. Candidates are examined at the
// configured interleave stride first (rotdelay layout); if no aligned
// block is free, any free block is taken.
func (f *FS) allocBlock(ctx kernel.Ctx) (uint32, error) {
	if f.k.Faults().Hit(f.AllocSite(), 0) {
		return 0, kernel.ErrNoSpace
	}
	if f.sb.FreeBlocks == 0 {
		return 0, kernel.ErrNoSpace
	}
	stride := f.interleave
	if stride == 0 {
		stride = 1
	}
	blk, err := f.scanAlloc(ctx, stride)
	if err == kernel.ErrNoSpace && stride > 1 {
		blk, err = f.scanAlloc(ctx, 1)
	}
	if err != nil {
		return 0, err
	}
	f.sb.FreeBlocks--
	f.sbDirty = true
	f.blkRotor = blk + stride
	if f.blkRotor >= f.sb.TotalBlocks {
		f.blkRotor = f.sb.DataStart
	}
	return blk, nil
}

// scanAlloc performs a first-fit bitmap scan from the rotor over
// stride-aligned data blocks, marking and returning the block found.
func (f *FS) scanAlloc(ctx kernel.Ctx, stride uint32) (uint32, error) {
	bitsPerBlk := int(f.sb.BlockSize) * 8
	dataStart := f.sb.DataStart
	span := f.sb.TotalBlocks - dataStart
	start := f.blkRotor
	if start < dataStart || start >= f.sb.TotalBlocks {
		start = dataStart
	}
	var held *buf.Buf
	var heldBlk int64 = -1
	release := func() {
		if held != nil {
			f.cache.Brelse(ctx, held)
			held = nil
			heldBlk = -1
		}
	}
	for scanned := uint32(0); scanned < span; scanned += stride {
		cur := dataStart + (start-dataStart+scanned)%span
		if stride > 1 && (cur-dataStart)%stride != 0 {
			continue
		}
		bmBlk := int64(f.sb.BitmapStart) + int64(cur)/int64(bitsPerBlk)
		if bmBlk != heldBlk {
			release()
			b, err := f.cache.Bread(ctx, f.dev, bmBlk)
			if err != nil {
				return 0, err
			}
			held, heldBlk = b, bmBlk
		}
		bit := int(cur) % bitsPerBlk
		if held.Data[bit/8]&(1<<uint(bit%8)) == 0 {
			held.Data[bit/8] |= 1 << uint(bit%8)
			f.cache.Bdwrite(ctx, held)
			return cur, nil
		}
	}
	release()
	return 0, kernel.ErrNoSpace
}

// freeBlock clears the bitmap bit for blk.
func (f *FS) freeBlock(ctx kernel.Ctx, blk uint32) error {
	if blk < f.sb.DataStart || blk >= f.sb.TotalBlocks {
		return kernel.ErrInval
	}
	bsize := int(f.sb.BlockSize)
	bitsPerBlk := bsize * 8
	bmBlk := int64(f.sb.BitmapStart) + int64(int(blk)/bitsPerBlk)
	b, err := f.cache.Bread(ctx, f.dev, bmBlk)
	if err != nil {
		return err
	}
	bit := int(blk) % bitsPerBlk
	b.Data[bit/8] &^= 1 << uint(bit%8)
	f.cache.Bdwrite(ctx, b)
	f.sb.FreeBlocks++
	f.sbDirty = true
	return nil
}

// ---- inode table ----

func (f *FS) inodesPerBlock() int { return int(f.sb.BlockSize) / InodeSize }

func (f *FS) itableBlock(ino uint32) (blk int64, off int) {
	per := f.inodesPerBlock()
	return int64(f.sb.ITableStart) + int64(int(ino)/per), (int(ino) % per) * InodeSize
}

// iget returns the in-core inode for ino, reading it from the inode
// table if necessary. The reference count is incremented; pair with
// iput.
func (f *FS) iget(ctx kernel.Ctx, ino uint32) (*Inode, error) {
	if ino == 0 || ino >= f.sb.NInodes {
		return nil, kernel.ErrInval
	}
	if ip, ok := f.inodes[ino]; ok {
		ip.refs++
		return ip, nil
	}
	blk, off := f.itableBlock(ino)
	b, err := f.cache.Bread(ctx, f.dev, blk)
	if err != nil {
		return nil, err
	}
	// Bread may sleep: another process can have installed this inode
	// while we waited for the table block (the classic iget race —
	// without this re-check, two in-core copies of one inode would
	// diverge and lose directory entries and size updates).
	if ip, ok := f.inodes[ino]; ok {
		f.cache.Brelse(ctx, b)
		ip.refs++
		return ip, nil
	}
	var di dinode
	di.decode(b.Data[off:])
	f.cache.Brelse(ctx, b)
	ip := &Inode{
		fs: f, ino: ino,
		mode: di.Mode, nlink: di.Nlink, size: di.Size,
		indir: di.Indir, dindir: di.DIndir,
		refs: 1,
	}
	ip.direct = di.Direct
	f.inodes[ino] = ip
	f.live = append(f.live, ip)
	return ip, nil
}

// iput drops a reference; the last put writes back a dirty inode and
// removes unlinked inodes entirely.
func (f *FS) iput(ctx kernel.Ctx, ip *Inode) error {
	ip.refs--
	if ip.refs > 0 {
		return nil
	}
	var err error
	if ip.nlink == 0 {
		// Mark the inode free first: truncate's synchronous inode write
		// then records the release on the platter before the bitmap
		// gives the blocks back, so no stale claim can ever collide
		// with a block reallocated (and fsync'd) by another file.
		ip.mode = ModeFree
		ip.dirty = true
		err = ip.truncate(ctx, 0)
		f.sb.FreeInodes++
		f.sbDirty = true
	}
	if ip.dirty {
		if werr := f.iupdate(ctx, ip); werr != nil && err == nil {
			err = werr
		}
	}
	delete(f.inodes, ip.ino)
	if i := slices.Index(f.live, ip); i >= 0 {
		f.live = slices.Delete(f.live, i, i+1)
	}
	return err
}

// iupdate writes the inode back to the inode table (delayed write).
func (f *FS) iupdate(ctx kernel.Ctx, ip *Inode) error {
	blk, off := f.itableBlock(ip.ino)
	b, err := f.cache.Bread(ctx, f.dev, blk)
	if err != nil {
		return err
	}
	di := dinode{
		Mode: ip.mode, Nlink: ip.nlink, Size: ip.size,
		Direct: ip.direct, Indir: ip.indir, DIndir: ip.dindir,
	}
	di.encode(b.Data[off:])
	f.cache.Bdwrite(ctx, b)
	ip.dirty = false
	return nil
}

// iupdateSync writes the inode back synchronously. The ordered-metadata
// discipline uses it where the on-platter inode image must be durable
// before a dependent update may land (new inode before its directory
// entry; cleared inode before its blocks return to the bitmap), so that
// a crash at any instant leaves a volume the repairing fsck provably
// converges on without touching any fsync'd file's content.
func (f *FS) iupdateSync(ctx kernel.Ctx, ip *Inode) error {
	blk, off := f.itableBlock(ip.ino)
	b, err := f.cache.Bread(ctx, f.dev, blk)
	if err != nil {
		return err
	}
	di := dinode{
		Mode: ip.mode, Nlink: ip.nlink, Size: ip.size,
		Direct: ip.direct, Indir: ip.indir, DIndir: ip.dindir,
	}
	di.encode(b.Data[off:])
	if err := f.cache.Bwrite(ctx, b); err != nil {
		return err
	}
	ip.dirty = false
	return nil
}

// ialloc finds a free inode, marks it with mode, and returns it held.
func (f *FS) ialloc(ctx kernel.Ctx, mode uint16) (*Inode, error) {
	if f.sb.FreeInodes == 0 {
		return nil, kernel.ErrNoSpace
	}
	n := f.sb.NInodes
	for scanned := uint32(0); scanned < n; scanned++ {
		ino := f.inoRotor + scanned
		if ino >= n {
			ino = ino - n + RootIno + 1
		}
		if ino <= RootIno {
			continue
		}
		if _, inCore := f.inodes[ino]; inCore {
			continue
		}
		blk, off := f.itableBlock(ino)
		b, err := f.cache.Bread(ctx, f.dev, blk)
		if err != nil {
			return nil, err
		}
		var di dinode
		di.decode(b.Data[off:])
		if di.Mode != ModeFree {
			f.cache.Brelse(ctx, b)
			continue
		}
		di = dinode{Mode: mode, Nlink: 1}
		di.encode(b.Data[off:])
		// Ordered metadata: the initialized inode must be on the platter
		// before the directory entry naming it can be written, so a
		// crash never leaves a durable dirent pointing at a free inode.
		if err := f.cache.Bwrite(ctx, b); err != nil {
			return nil, err
		}
		ip := &Inode{fs: f, ino: ino, mode: mode, nlink: 1, refs: 1}
		f.inodes[ino] = ip
		f.live = append(f.live, ip)
		f.inoRotor = ino + 1
		f.sb.FreeInodes--
		f.sbDirty = true
		return ip, nil
	}
	return nil, kernel.ErrNoSpace
}

// ---- path resolution ----

func splitPath(path string) []string {
	var parts []string
	for _, s := range strings.Split(path, "/") {
		if s != "" && s != "." {
			parts = append(parts, s)
		}
	}
	return parts
}

// namei resolves path (relative to the filesystem root) to a held
// inode.
func (f *FS) namei(ctx kernel.Ctx, path string) (*Inode, error) {
	parts := splitPath(path)
	ip, err := f.iget(ctx, RootIno)
	if err != nil {
		return nil, err
	}
	for _, name := range parts {
		if ip.mode != ModeDir {
			_ = f.iput(ctx, ip)
			return nil, kernel.ErrNotDir
		}
		ino, _, err := f.dirLookup(ctx, ip, name)
		if err != nil {
			_ = f.iput(ctx, ip)
			return nil, err
		}
		next, err := f.iget(ctx, ino)
		_ = f.iput(ctx, ip)
		if err != nil {
			return nil, err
		}
		ip = next
	}
	return ip, nil
}

// nameiParent resolves the parent directory of path, returning the held
// parent inode and the final path element.
func (f *FS) nameiParent(ctx kernel.Ctx, path string) (*Inode, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", kernel.ErrInval
	}
	dirPath := strings.Join(parts[:len(parts)-1], "/")
	dp, err := f.namei(ctx, dirPath)
	if err != nil {
		return nil, "", err
	}
	if dp.mode != ModeDir {
		_ = f.iput(ctx, dp)
		return nil, "", kernel.ErrNotDir
	}
	return dp, parts[len(parts)-1], nil
}

// ---- directory contents ----

// dirLookup scans directory dp for name. Returns the inode number and
// the byte offset of the entry.
func (f *FS) dirLookup(ctx kernel.Ctx, dp *Inode, name string) (uint32, int64, error) {
	bsize := int64(f.sb.BlockSize)
	for off := int64(0); off < dp.size; off += DirentSize {
		lblk := off / bsize
		pblk, _, err := dp.bmap(ctx, lblk, false, false)
		if err != nil {
			return 0, 0, err
		}
		if pblk == 0 {
			continue
		}
		b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
		if err != nil {
			return 0, 0, err
		}
		// Scan every entry in this block.
		blockEnd := (lblk + 1) * bsize
		for ; off < dp.size && off < blockEnd; off += DirentSize {
			de := decodeDirent(b.Data[off%bsize:])
			if de.Ino != 0 && de.Name == name {
				f.cache.Brelse(ctx, b)
				return de.Ino, off, nil
			}
		}
		off -= DirentSize // outer loop re-adds
		f.cache.Brelse(ctx, b)
	}
	return 0, 0, kernel.ErrNoEnt
}

// dirEnter adds (name, ino) to directory dp, reusing a free slot when
// one exists.
func (f *FS) dirEnter(ctx kernel.Ctx, dp *Inode, name string, ino uint32) error {
	if len(name) == 0 || len(name) > MaxNameLen {
		return kernel.ErrInval
	}
	bsize := int64(f.sb.BlockSize)
	// Look for a free slot.
	for off := int64(0); off < dp.size; off += DirentSize {
		pblk, _, err := dp.bmap(ctx, off/bsize, false, false)
		if err != nil {
			return err
		}
		if pblk == 0 {
			continue
		}
		b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
		if err != nil {
			return err
		}
		de := decodeDirent(b.Data[off%bsize:])
		if de.Ino == 0 {
			encodeDirent(b.Data[off%bsize:], dirent{Ino: ino, Name: name})
			// Ordered metadata: directory entries are written through
			// synchronously (the target inode is already durable), so a
			// successfully created name survives any later crash.
			return f.cache.Bwrite(ctx, b)
		}
		f.cache.Brelse(ctx, b)
	}
	// Append at the end, allocating a new block if needed.
	off := dp.size
	pblk, _, err := dp.bmap(ctx, off/bsize, true, true)
	if err != nil {
		return err
	}
	b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
	if err != nil {
		return err
	}
	encodeDirent(b.Data[off%bsize:], dirent{Ino: ino, Name: name})
	if err := f.cache.Bwrite(ctx, b); err != nil {
		return err
	}
	dp.size = off + DirentSize
	dp.dirty = true
	// The entry block is durable; now make it reachable by writing the
	// directory inode (grown size, possibly a new block pointer). Until
	// this lands a crash leaves the new inode orphaned — which repair
	// zaps — never a reachable torn entry.
	return f.iupdateSync(ctx, dp)
}

// dirRemove deletes name from directory dp.
func (f *FS) dirRemove(ctx kernel.Ctx, dp *Inode, name string) (uint32, error) {
	ino, off, err := f.dirLookup(ctx, dp, name)
	if err != nil {
		return 0, err
	}
	bsize := int64(f.sb.BlockSize)
	pblk, _, err := dp.bmap(ctx, off/bsize, false, false)
	if err != nil {
		return 0, err
	}
	b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
	if err != nil {
		return 0, err
	}
	encodeDirent(b.Data[off%bsize:], dirent{})
	// Ordered metadata: the cleared entry must be durable before the
	// freed inode (written synchronously by iput/truncate) can be, or a
	// crash would leave a durable dirent naming a free inode.
	if err := f.cache.Bwrite(ctx, b); err != nil {
		return 0, err
	}
	return ino, nil
}

// ---- kernel.FileSystem interface ----

// OpenFile resolves (creating if requested) path and returns an open
// file object.
func (f *FS) OpenFile(ctx kernel.Ctx, path string, flags int) (kernel.FileOps, error) {
	ip, err := f.namei(ctx, path)
	if err == kernel.ErrNoEnt && flags&kernel.OCreat != 0 {
		ip, err = f.create(ctx, path)
	}
	if err != nil {
		return nil, err
	}
	if ip.mode == ModeDir && flags&0x3 != kernel.ORdOnly {
		_ = f.iput(ctx, ip)
		return nil, kernel.ErrIsDir
	}
	if flags&kernel.OTrunc != 0 && ip.mode == ModeFile {
		ip.lock(ctx)
		err = ip.truncate(ctx, 0)
		ip.unlock()
		if err != nil {
			_ = f.iput(ctx, ip)
			return nil, err
		}
	}
	return &File{fs: f, ip: ip}, nil
}

func (f *FS) create(ctx kernel.Ctx, path string) (*Inode, error) {
	dp, name, err := f.nameiParent(ctx, path)
	if err != nil {
		return nil, err
	}
	defer f.iput(ctx, dp)
	if _, _, err := f.dirLookup(ctx, dp, name); err == nil {
		return nil, kernel.ErrExist
	}
	ip, err := f.ialloc(ctx, ModeFile)
	if err != nil {
		return nil, err
	}
	dp.lock(ctx)
	err = f.dirEnter(ctx, dp, name, ip.ino)
	dp.unlock()
	if err != nil {
		ip.nlink = 0
		_ = f.iput(ctx, ip)
		return nil, err
	}
	return ip, nil
}

// Mkdir creates a directory at path.
func (f *FS) Mkdir(ctx kernel.Ctx, path string) error {
	dp, name, err := f.nameiParent(ctx, path)
	if err != nil {
		return err
	}
	defer f.iput(ctx, dp)
	if _, _, err := f.dirLookup(ctx, dp, name); err == nil {
		return kernel.ErrExist
	}
	ip, err := f.ialloc(ctx, ModeDir)
	if err != nil {
		return err
	}
	dp.lock(ctx)
	err = f.dirEnter(ctx, dp, name, ip.ino)
	dp.unlock()
	if err != nil {
		ip.nlink = 0
	}
	_ = f.iput(ctx, ip)
	return err
}

// Remove unlinks path (kernel.FileSystem interface).
func (f *FS) Remove(ctx kernel.Ctx, path string) error {
	dp, name, err := f.nameiParent(ctx, path)
	if err != nil {
		return err
	}
	defer f.iput(ctx, dp)
	dp.lock(ctx)
	ino, err := f.dirRemove(ctx, dp, name)
	dp.unlock()
	if err != nil {
		return err
	}
	ip, err := f.iget(ctx, ino)
	if err != nil {
		return err
	}
	if ip.nlink > 0 {
		ip.nlink--
	}
	ip.dirty = true
	return f.iput(ctx, ip)
}

// SyncAll flushes the superblock and every dirty buffer of the device.
func (f *FS) SyncAll(ctx kernel.Ctx) error {
	// Dirty mapped pages first: paging them out turns mmap stores into
	// ordinary delayed writes, which the flush below then carries to
	// the platter — sync() covers mmap I/O exactly as it covers
	// write() I/O.
	if f.pager != nil {
		dev := f.dev.DevName()
		for _, ino := range f.pager.DirtyInos(dev) {
			if err := f.pager.PageoutObject(ctx, dev, ino); err != nil {
				return err
			}
		}
	}
	// Deterministic inode order: map iteration order must not leak
	// into I/O issue order (it would show up in trace digests).
	inos := make([]uint32, 0, len(f.inodes))
	for ino := range f.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		if ip := f.inodes[ino]; ip.dirty {
			if err := f.iupdate(ctx, ip); err != nil {
				return err
			}
		}
	}
	if f.sbDirty {
		b := f.cache.Getblk(ctx, f.dev, 0)
		f.sb.encode(b.Data)
		f.cache.Bdwrite(ctx, b)
		f.sbDirty = false
	}
	n, err := f.cache.FlushDev(ctx, f.dev)
	// Consume the sticky latch whether or not the flush itself failed:
	// nothing dirty to flush can still mean an evicted delayed write
	// failed since the last sync, and a flush failure latched its error
	// for exactly this sync to take.
	if lerr := f.cache.TakeWriteError(f.dev); err == nil {
		err = lerr
	}
	if err == nil {
		f.k.TraceEmit(trace.KindFSSync, 0, int64(n), 0, f.dev.DevName())
	}
	return err
}

// LiveInodes returns the number of in-core inodes (files or
// directories currently referenced). Crash orchestration asserts this
// is zero before pulling the plug: volatile inode state on a
// non-quiescent volume would be discarded mid-operation.
func (f *FS) LiveInodes() int { return len(f.inodes) }

// Exists reports whether path resolves (test/benchmark convenience).
func (f *FS) Exists(ctx kernel.Ctx, path string) bool {
	ip, err := f.namei(ctx, path)
	if err != nil {
		return false
	}
	_ = f.iput(ctx, ip)
	return true
}

var _ kernel.FileSystem = (*FS)(nil)
