// Package vm is the virtual-memory subsystem: per-process address
// spaces, demand-paged mmap file I/O unified with the buffer cache,
// copy-on-write private mappings, and clock-algorithm page
// replacement.
//
// The design is the unified cache of NetBSD's UBC: a mapped file is a
// single object per (device, inode) no matter how many processes map
// it; a page fault is a priced trap (Config.PageFaultCost +
// Config.PageMapCost) that pages in through the ordinary buffer cache,
// and a resident file page *is* its block's cache buffer, held for the
// page — so a shared-mapping read moves zero bytes through user/kernel
// copies, read() and write() see mapped stores at once, and a dirty
// page is a delayed write, indistinguishable from write() data to the
// flushes, getblk's recycling and the sticky per-device error latch.
// A page keeps no memory of its own: every access reads its buffer's,
// which shares its block copy-on-write like any buffer's, and a hole
// reads the cache's zero block. A private mapping's copy-on-write copy
// is no page at all but a sim.Block its shadow slot holds, so the pool
// and its clock ring hold file pages only.
//
// There is no page-daemon process: kernel.Run exits when the last
// process does, so a perpetual daemon would hang every machine.
// Instead the clock algorithm runs synchronously in the faulting
// process's context when the pool is full (reclaimFrame), which is the
// modeled equivalent of waking the pagedaemon at the low-water mark —
// the work is charged to the machine either way, and determinism is
// preserved because it happens at a fixed point in the fault path.
//
// Layering: vm imports only kernel (and trace/sim). The filesystem
// side of the contract is structural: *fs.File satisfies Backing, so
// neither package imports the other.
package vm

import (
	"slices"
	"sort"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// Backing is the per-object backing store a mapped file provides
// (implemented structurally by *fs.File). Pages are one filesystem
// block: the pool's page size must equal the backing block size, which
// is what lets a resident page be its block's buffer, whose memory each
// access asks for afresh: a write() or a transfer may give it another.
type Backing interface {
	// MapRef takes a mapping reference: the object must stay valid
	// after the fd it was mapped from is closed.
	MapRef(ctx kernel.Ctx)
	// MapUnref drops the MapRef reference.
	MapUnref(ctx kernel.Ctx) error
	// MapKey identifies the object: (device name, inode number).
	MapKey() (dev string, ino uint32)
	// Size returns the current file size.
	Size(ctx kernel.Ctx) (int64, error)
	// Extend grows the file size to n (never shrinks it).
	Extend(ctx kernel.Ctx, n int64)
	// PageIn holds the buffer of page idx's block for the page until
	// PageRelease and returns the block. A hole or a page past EOF has
	// no block (0). With alloc set a hole is given one (write faults need
	// one) and reported fresh: nothing was read, and the buffer reads as
	// zeros and is dirty from birth.
	PageIn(ctx kernel.Ctx, idx int64, alloc bool) (blk int64, fresh bool, err error)
	// PageLoad copies blk's held buffer from off on into dst, a load
	// through its page; blk 0 reads zeros. A whole page loaded is the
	// buffer cache's copy hint, which a whole page stored from the same
	// memory may share.
	PageLoad(blk int64, off int, dst []byte)
	// PageStore stores src at off into blk's held buffer, a store
	// through its page, making it a delayed write whose block a platter
	// does not share, and reports whether the buffer was clean.
	PageStore(ctx kernel.Ctx, blk int64, off int, src []byte) (clean bool)
	// PageRelease lets go of blk's held buffer without sleeping; with
	// evict set (the clock takes the page) a delayed write starts now.
	PageRelease(ctx kernel.Ctx, blk int64, evict bool)
	// PageBuffer returns the memory of blk's held buffer, nil if none,
	// and for blk 0 (a hole) the cache's zero block: what a copy-on-write
	// fault copies, and the invariant checker's view. It never sleeps or
	// allocates.
	PageBuffer(blk int64) []byte
	// PageFlush forces the whole file (data, inode, inode table) to
	// stable storage and surfaces any latched async write error:
	// msync's durability is fsync's.
	PageFlush(ctx kernel.Ctx) error
}

// page is one resident page of a mapped file: a cached page of its
// object, whose memory is the held buffer of block blk, or the cache's
// zero block while it is a hole.
type page struct {
	obj   *object
	idx   int64 // object page index (file offset / page size)
	blk   int64 // the block whose held buffer is the page; 0 = none
	ref   bool  // clock reference bit
	busy  bool  // pagein in flight; waiters sleep on the page
	wired int   // transient pins held across scheduling points

	// Clock-ring links while resident (inRing); next alone threads the
	// pool's free list otherwise.
	prev, next *page
	inRing     bool

	ckRing uint64 // CheckInvariants pass that last saw the page in the ring
}

// object is the per-(device, inode) set of resident pages, shared by
// every mapping of the file.
type object struct {
	backing  Backing
	dev      string
	ino      uint32
	pages    map[int64]*page
	mappings int

	ck stamp // CheckInvariants: mappings found referring to the object
}

// mapping is one contiguous mmap region in one address space.
type mapping struct {
	addr   int64
	length int64 // bytes requested (the region spans whole pages)
	npages int64
	pgoff  int64 // object page index of the region's first page
	prot   int
	flags  int
	obj    *object

	// Per-page state, indexed by page within the region (object page
	// index − pgoff); shadow is nil for a shared mapping.
	shadow []*sim.Block // private copy-on-write copies, held until unmap
	valid  []bool       // pages entered into this address space
	wok    []bool       // pages entered write-enabled
}

func (m *mapping) private() bool { return m.flags&kernel.MapPrivate != 0 }

// space is a process address space: its mappings and a bump-pointer
// virtual address allocator.
type space struct {
	pid  int
	brk  int64
	maps []*mapping // ascending addr (allocation order)
}

// mapBase is where mmap regions start in every address space.
const mapBase = int64(0x4000_0000)

// Pool is the machine's page pool and the kernel's
// AddressSpaceProvider. One Pool serves every process on the machine.
type Pool struct {
	k        *kernel.Kernel
	pageSize int
	nframes  int

	objects []*object // mapped files, in first-mapping order
	spaces  []*space  // address spaces, in first-mmap order

	// The clock ring: resident file pages from oldest to newest, doubly
	// linked so that a page leaves it in constant time. hand is the next
	// page the sweep examines; nil stands for the position past the newest
	// page, which the sweep wraps to the oldest and a new page arrives
	// under.
	ringHead, ringTail *page
	hand               *page
	resident           int

	// free holds the page records no page is using.
	free *page

	ckPass uint64     // CheckInvariants pass counter (see stamp)
	gen    kernel.Gen // the catalog's generation (invariants.go)
}

// NewPool builds a page pool of at most frames resident file pages of
// pageSize bytes. pageSize must equal the block size of every
// filesystem whose files get mapped (a file page is its block's cache
// buffer), and a resident file page holds one of the cache's buffers,
// which is what the cap bounds: copy-on-write copies hold none and do
// not count.
func NewPool(k *kernel.Kernel, frames, pageSize int) *Pool {
	if frames <= 0 || pageSize <= 0 {
		panic("vm: NewPool with nonpositive geometry")
	}
	return &Pool{k: k, pageSize: pageSize, nframes: frames}
}

// space returns pid's address space, or nil if it never mapped anything.
func (v *Pool) space(pid int) *space {
	for _, as := range v.spaces {
		if as.pid == pid {
			return as
		}
	}
	return nil
}

// object returns the mapped object for (dev, ino), or nil.
func (v *Pool) object(dev string, ino uint32) *object {
	for _, obj := range v.objects {
		if obj.ino == ino && obj.dev == dev {
			return obj
		}
	}
	return nil
}

// Frames returns the most file pages the pool keeps resident.
func (v *Pool) Frames() int { return v.nframes }

// Resident returns the number of file pages currently resident.
func (v *Pool) Resident() int { return v.resident }

var _ kernel.AddressSpaceProvider = (*Pool)(nil)

// ---- address-space management ----

func (v *Pool) spaceFor(p *kernel.Proc) *space {
	as := v.space(p.Pid())
	if as == nil {
		as = &space{pid: p.Pid(), brk: mapBase}
		v.spaces = append(v.spaces, as)
		// Leftover mappings are released when the process exits, so a
		// process can never leak page frames or inode references.
		p.AtExit(v.releaseSpace)
	}
	return as
}

func (v *Pool) releaseSpace(p *kernel.Proc) {
	as := v.space(p.Pid())
	if as == nil {
		return
	}
	ctx := p.Ctx()
	for len(as.maps) > 0 {
		_ = v.unmap(ctx, as, as.maps[0])
	}
	if i := slices.Index(v.spaces, as); i >= 0 {
		v.spaces = slices.Delete(v.spaces, i, i+1)
		v.gen.Bump()
	}
}

// Mmap implements kernel.AddressSpaceProvider. off must be
// page-aligned; the region spans whole pages. Exactly one of MapShared
// and MapPrivate must be given, and every mapping must be readable. A
// writable shared mapping requires a writable descriptor and extends
// the file to off+length up front (blocks are allocated lazily by the
// write faults that dirty them).
func (v *Pool) Mmap(p *kernel.Proc, fd int, off, length int64, prot, flags int) (int64, error) {
	ps := int64(v.pageSize)
	if length <= 0 || off < 0 || off%ps != 0 {
		return 0, kernel.ErrInval
	}
	shared := flags&kernel.MapShared != 0
	if shared == (flags&kernel.MapPrivate != 0) {
		return 0, kernel.ErrInval
	}
	if prot&^(kernel.ProtRead|kernel.ProtWrite) != 0 || prot&kernel.ProtRead == 0 {
		return 0, kernel.ErrInval
	}
	f, err := p.FD(fd)
	if err != nil {
		return 0, err
	}
	b, ok := f.Ops().(Backing)
	if !ok {
		return 0, kernel.ErrOpNotSupp
	}
	if shared && prot&kernel.ProtWrite != 0 && f.Flags()&0x3 == kernel.ORdOnly {
		return 0, kernel.ErrBadFD
	}
	ctx := p.Ctx()
	if shared && prot&kernel.ProtWrite != 0 {
		sz, serr := b.Size(ctx)
		if serr != nil {
			return 0, serr
		}
		if off+length > sz {
			b.Extend(ctx, off+length)
		}
	}
	dev, ino := b.MapKey()
	obj := v.object(dev, ino)
	if obj == nil {
		obj = &object{backing: b, dev: dev, ino: ino, pages: make(map[int64]*page)}
		b.MapRef(ctx)
		v.objects = append(v.objects, obj)
	}
	obj.mappings++
	as := v.spaceFor(p)
	npages := (length + ps - 1) / ps
	m := &mapping{
		addr: as.brk, length: length, npages: npages, pgoff: off / ps,
		prot: prot, flags: flags, obj: obj,
		valid: make([]bool, npages), wok: make([]bool, npages),
	}
	if m.private() {
		m.shadow = make([]*sim.Block, npages)
	}
	as.brk += (npages + 1) * ps // guard page between regions
	as.maps = append(as.maps, m)
	v.gen.Bump()
	return m.addr, nil
}

// Munmap implements kernel.AddressSpaceProvider: whole mappings only
// (addr must be a value Mmap returned), as in the original mmap
// proposal. The last unmap of an object lets go of its pages' buffers,
// dirty ones staying delayed writes, and drops its inode reference.
func (v *Pool) Munmap(p *kernel.Proc, addr int64) error {
	as := v.space(p.Pid())
	if as == nil {
		return kernel.ErrInval
	}
	for _, m := range as.maps {
		if m.addr == addr {
			return v.unmap(p.Ctx(), as, m)
		}
	}
	return kernel.ErrInval
}

// unmap tears down one published mapping. Every step that can cross a
// scheduling boundary — the priced pmap teardown and waiting out the
// pageins in flight on a last-mapping object — runs while the mapping
// is still fully published, so an invariant probe between any two
// events never observes a half-dismantled pool; the structural excision
// afterwards sleeps nowhere.
func (v *Pool) unmap(ctx kernel.Ctx, as *space, m *mapping) error {
	// pmap teardown: one map manipulation per page entered, a
	// copy-on-write copy included.
	n := 0
	for _, entered := range m.valid {
		if entered {
			n++
		}
	}
	if n > 0 {
		ctx.Use(v.k.Config().PageMapCost * sim.Duration(n))
	}
	obj := m.obj
	if obj.mappings == 1 {
		// Last mapping: wait out pageins while the object is still
		// published. waitIdle returns off a sleep-free final pass, so
		// the pages are still idle at the excision.
		v.waitIdle(ctx, obj)
	}
	if i := slices.Index(as.maps, m); i >= 0 {
		as.maps = slices.Delete(as.maps, i, i+1)
	}
	for _, b := range m.shadow {
		b.Unref()
	}
	m.shadow = nil
	m.valid = nil
	m.wok = nil
	obj.mappings--
	v.gen.Bump() // the excision from here on sleeps nowhere
	if obj.mappings > 0 {
		return nil
	}
	for _, idx := range sortedPages(obj.pages) {
		v.dropPage(ctx, obj.pages[idx], false)
	}
	if i := slices.Index(v.objects, obj); i >= 0 {
		v.objects = slices.Delete(v.objects, i, i+1)
	}
	// Dropping the inode reference may write back metadata (and can
	// sleep), but the object is fully gone from the pool by now.
	return obj.backing.MapUnref(ctx)
}

// waitIdle waits out obj's pageins in flight, repeating until one full
// pass finds every page idle without sleeping.
func (v *Pool) waitIdle(ctx kernel.Ctx, obj *object) {
	for slept := true; slept; {
		slept = false
		for _, idx := range sortedPages(obj.pages) {
			for pg := obj.pages[idx]; pg != nil && pg.busy; pg = obj.pages[idx] {
				slept = true
				_ = ctx.Sleep(pg, kernel.PSWP+1)
			}
		}
	}
}

// Msync implements kernel.AddressSpaceProvider: the backing file is
// synced in full (data, inode, inode table) — its dirty pages are
// delayed writes in the cache, which the flush covers — so an Msync'd
// mapping has exactly fsync's crash durability, and, like fsync, Msync
// surfaces the sticky per-device write error latched by any earlier
// failed async write.
func (v *Pool) Msync(p *kernel.Proc, addr int64) error {
	as := v.space(p.Pid())
	if as == nil {
		return kernel.ErrInval
	}
	for _, m := range as.maps {
		if m.addr == addr {
			return m.obj.backing.PageFlush(p.Ctx())
		}
	}
	return kernel.ErrInval
}

// ---- user memory access (fault handling) ----

// MemRead implements kernel.AddressSpaceProvider: user-mode loads from
// [addr, addr+len(dst)), which must lie within one mapping. Faults are
// taken and priced; the copy itself is a user-mode load loop the
// caller models (that is mmap's entire advantage: no copyout).
func (v *Pool) MemRead(p *kernel.Proc, addr int64, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	m := v.findMapping(p.Pid(), addr, int64(len(dst)))
	if m == nil {
		return kernel.ErrInval
	}
	ps := int64(v.pageSize)
	for done := int64(0); done < int64(len(dst)); {
		rel := addr + done - m.addr
		idx := m.pgoff + rel/ps
		poff := rel % ps
		n := ps - poff
		if rem := int64(len(dst)) - done; n > rem {
			n = rem
		}
		if err := v.access(p, m, idx, int(poff), dst[done:done+n], false); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// MemWrite implements kernel.AddressSpaceProvider: user-mode stores.
// A store through a shared mapping makes its page's buffer a delayed
// write as the bytes land, waiting out a write in flight and giving
// the buffer a block no platter shares (PageStore), so no store is ever
// left clean or reaches a platter; the store that dirties a clean page
// is its vm.pageout.
func (v *Pool) MemWrite(p *kernel.Proc, addr int64, src []byte) error {
	if len(src) == 0 {
		return nil
	}
	m := v.findMapping(p.Pid(), addr, int64(len(src)))
	if m == nil {
		return kernel.ErrInval
	}
	ps := int64(v.pageSize)
	for done := int64(0); done < int64(len(src)); {
		rel := addr + done - m.addr
		idx := m.pgoff + rel/ps
		poff := rel % ps
		n := ps - poff
		if rem := int64(len(src)) - done; n > rem {
			n = rem
		}
		if err := v.access(p, m, idx, int(poff), src[done:done+n], true); err != nil {
			return err
		}
		done += n
	}
	return nil
}

func (v *Pool) findMapping(pid int, addr, length int64) *mapping {
	as := v.space(pid)
	if as == nil {
		return nil
	}
	for _, m := range as.maps {
		if addr >= m.addr && addr+length <= m.addr+m.npages*int64(v.pageSize) {
			return m
		}
	}
	return nil
}

// access resolves one page for an access of data at poff in it and
// moves the bytes: to or from the mapping's copy-on-write copy if it has
// one, else its object page's buffer — a load through PageLoad, a store
// through PageStore, which waits out a write in flight and gives the
// buffer a block no platter shares, so no store is ever left clean or
// reaches a platter; the store that dirties a clean page is its
// vm.pageout. Nothing sleeps between the fault and the move but
// PageStore's wait.
func (v *Pool) access(p *kernel.Proc, m *mapping, idx int64, poff int, data []byte, write bool) error {
	pg, err := v.fault(p, m, idx, write)
	if err != nil {
		return err
	}
	switch {
	case pg == nil:
		if mem := m.shadow[idx-m.pgoff].Bytes[poff:]; write {
			copy(mem, data)
		} else {
			copy(data, mem)
		}
		return nil
	case !write:
		pg.obj.backing.PageLoad(pg.blk, poff, data)
	case pg.obj.backing.PageStore(p.Ctx(), pg.blk, poff, data):
		v.k.TraceEmit(trace.KindVMPageout, p.Pid(), pg.idx, pg.blk, pg.obj.dev)
	}
	v.unwire(pg)
	return nil
}

// fault takes (and prices) a fault if the page is not entered with
// sufficient protection. It returns the object page resident, wired
// (pair with unwire), and for a store writable — or nil when the access
// goes to the mapping's copy-on-write copy.
//
// Fault taxonomy, each emitting one vm.fault event:
//   - major: page not resident, filled by PageIn through the cache
//     (adds a vm.pagein event when a block is read);
//   - minor: page resident in the object but not entered in this
//     address space — pmap work only, no I/O;
//   - protection: entered read-only, store write-enables it (a shared
//     mapping's first store to a page, which is also where the page's
//     backing block gets allocated if it was a hole);
//   - COW: store to a private mapping copies the object page into a
//     block its shadow slot holds alone (vm.cow event).
func (v *Pool) fault(p *kernel.Proc, m *mapping, idx int64, write bool) (*page, error) {
	if write && m.prot&kernel.ProtWrite == 0 {
		return nil, kernel.ErrInval // protection violation (SIGSEGV analogue)
	}
	i := idx - m.pgoff
	if m.private() && m.shadow[i] != nil {
		return nil, nil
	}
	if m.valid[i] {
		if pg := m.obj.pages[idx]; pg != nil && !pg.busy {
			if !write || (m.wok[i] && !m.private() && pg.blk != 0) {
				pg.ref = true
				pg.wired++
				v.gen.Bump()
				return pg, nil
			}
		}
	}
	// Page fault.
	ctx := p.Ctx()
	cfg := v.k.Config()
	mode := int64(0)
	if write {
		mode = 1
	}
	v.k.TraceEmit(trace.KindVMFault, p.Pid(), idx, mode, m.obj.dev)
	ctx.Use(cfg.PageFaultCost)
	// A store through a shared mapping lands in a block's buffer, so
	// holes are allocated at write-fault time.
	pg, err := v.residentPage(p, m.obj, idx, write && !m.private())
	if err != nil {
		return nil, err
	}
	if write && m.private() {
		// Copy-on-write: break sharing into a block of the mapping's own.
		b := sim.NewBlock(v.pageSize)
		copy(b.Bytes, pg.obj.backing.PageBuffer(pg.blk))
		v.unwire(pg)
		// Held by its shadow slot before the copy is charged: the charge
		// can end at a scheduling boundary.
		m.shadow[i] = b
		m.valid[i] = true
		v.gen.Bump()
		ctx.Use(cfg.BcopyCost(v.pageSize))
		v.k.TraceEmit(trace.KindVMCOW, p.Pid(), idx, int64(v.pageSize), m.obj.dev)
		ctx.Use(cfg.PageMapCost)
		return nil, nil
	}
	m.valid[i] = true
	if write {
		m.wok[i] = true
	}
	ctx.Use(cfg.PageMapCost)
	pg.ref = true
	return pg, nil
}

func (v *Pool) unwire(pg *page) {
	pg.wired--
	v.gen.Bump()
	if pg.wired < 0 {
		panic("vm: unwire of unwired page")
	}
}

// residentPage returns object page idx resident and wired, paging it
// in if needed. A page already mid-pagein by another process is waited
// on rather than read twice. With alloc set (a store through a shared
// mapping) the page comes back with a block, a hole read in earlier
// included.
func (v *Pool) residentPage(p *kernel.Proc, obj *object, idx int64, alloc bool) (*page, error) {
	ctx := p.Ctx()
	for {
		pg := obj.pages[idx]
		if pg == nil {
			break
		}
		if !pg.busy {
			pg.wired++
			v.gen.Bump()
			if alloc && pg.blk == 0 {
				if err := v.pageIn(p, pg, true); err != nil {
					v.unwire(pg) // other mappings still see the hole
					return nil, err
				}
			}
			return pg, nil
		}
		_ = ctx.Sleep(pg, kernel.PSWP+1)
	}
	// Taking a record never sleeps (the clock's eviction starts a write
	// and waits for nothing), so idx is still absent when the page is
	// installed. The new page is born wired, the caller about to use it,
	// with its reference bit set.
	if v.resident >= v.nframes {
		if err := v.reclaimFrame(ctx); err != nil {
			return nil, err
		}
	}
	pg := v.free
	if pg == nil {
		pg = &page{}
	} else {
		v.free = pg.next
		*pg = page{}
	}
	pg.obj, pg.idx, pg.ref, pg.wired = obj, idx, true, 1
	v.ringAdd(pg)
	obj.pages[idx] = pg
	v.gen.Bump()
	if err := v.pageIn(p, pg, alloc); err != nil {
		delete(obj.pages, idx)
		v.unwire(pg)
		v.freePage(pg)
		return nil, err
	}
	return pg, nil
}

// pageIn makes pg the held buffer of its block; a hole's page has none
// and reads the cache's zero block. A fresh block (an allocating write
// fault on a hole) has nothing to read: its buffer is zeroed and dirty
// from birth, because the platter holds the block's previous owner's
// bytes until the whole block has been written — that birth is the
// page's vm.pageout.
func (v *Pool) pageIn(p *kernel.Proc, pg *page, alloc bool) error {
	pg.busy = true
	blk, fresh, err := pg.obj.backing.PageIn(p.Ctx(), pg.idx, alloc)
	pg.busy = false
	v.k.Wakeup(pg)
	switch {
	case err != nil:
		return err
	case blk == 0:
		return nil
	case fresh:
		v.k.TraceEmit(trace.KindVMPageout, p.Pid(), pg.idx, blk, pg.obj.dev)
	default:
		v.k.TraceEmit(trace.KindVMPagein, p.Pid(), pg.idx, blk, pg.obj.dev)
	}
	pg.blk = blk
	v.gen.Bump()
	return nil
}

// ---- page pool / clock replacement ----

// reclaimFrame is the modeled pagedaemon: a two-handed-clock sweep run
// in the faulting process's context when the pool is tight. Referenced
// pages get a second chance (ref bit cleared), and the first
// unreferenced victim is evicted: its buffer stays cached, and a dirty
// one starts its write now. Busy and wired pages are skipped. ErrNoMem
// when two full sweeps find nothing evictable.
func (v *Pool) reclaimFrame(ctx kernel.Ctx) error {
	v.gen.Bump() // the sweep moves the hand and sleeps nowhere
	limit := 2*v.resident + 2
	for scanned := 0; scanned < limit; scanned++ {
		if v.resident == 0 {
			break
		}
		if v.hand == nil {
			v.hand = v.ringHead
		}
		pg := v.hand
		if pg.busy || pg.wired > 0 {
			v.advanceHand()
			continue
		}
		if pg.ref {
			pg.ref = false
			v.advanceHand()
			continue
		}
		v.dropPage(ctx, pg, true)
		return nil
	}
	return kernel.ErrNoMem
}

// dropPage takes object page pg out of its object and frees it, letting
// go of its buffer; with evict set a dirty buffer's write starts now.
func (v *Pool) dropPage(ctx kernel.Ctx, pg *page, evict bool) {
	delete(pg.obj.pages, pg.idx)
	if pg.blk != 0 {
		pg.obj.backing.PageRelease(ctx, pg.blk, evict)
	}
	v.freePage(pg)
}

// advanceHand moves the clock hand to the next newer page; past the
// newest it stays there.
func (v *Pool) advanceHand() {
	if v.hand != nil {
		v.hand = v.hand.next
	}
}

// ringAdd makes pg the newest page of the clock ring.
func (v *Pool) ringAdd(pg *page) {
	pg.prev, pg.next, pg.inRing = v.ringTail, nil, true
	if v.ringTail == nil {
		v.ringHead = pg
	} else {
		v.ringTail.next = pg
	}
	v.ringTail = pg
	if v.hand == nil {
		v.hand = pg // the hand stood past the newest page
	}
	v.resident++
}

// freePage takes pg, which nothing refers to any more, out of the clock
// ring and returns its record to the free list. A hand resting on pg
// moves to the page after it.
func (v *Pool) freePage(pg *page) {
	if !pg.inRing {
		panic("vm: freePage of page not in ring")
	}
	if v.hand == pg {
		v.hand = pg.next
	}
	if pg.prev == nil {
		v.ringHead = pg.next
	} else {
		pg.prev.next = pg.next
	}
	if pg.next == nil {
		v.ringTail = pg.prev
	} else {
		pg.next.prev = pg.prev
	}
	v.resident--
	pg.obj, pg.prev, pg.inRing = nil, nil, false
	pg.next, v.free = v.free, pg
}

func sortedPages[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
