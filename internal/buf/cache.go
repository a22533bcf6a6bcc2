package buf

import (
	"fmt"
	"sort"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// Cache is the system buffer cache: a fixed pool of block-sized buffers
// shared by every mounted filesystem, as in 4.2BSD. The paper's
// measured system used a 3.2MB cache with 8KB blocks (400 buffers).
type Cache struct {
	k         *kernel.Kernel
	blockSize int
	// pool is every buffer in creation order. hash is 4.3BSD's bufhash:
	// a power-of-two array of chains indexed by block number alone (the
	// handful of devices share chains), so a lookup hashes nothing and
	// the invariant pass walks it bucket by bucket.
	pool []Buf
	hash []*Buf
	slab []byte // the pool's data memory in one piece; nil once released

	// LRU free list of reusable buffers (intrusive doubly linked).
	freeHead *Buf
	freeTail *Buf
	nfree    int
	nbuf     int

	// Empty headers for AllocHeader, linked through freeNext (4.3BSD's
	// BQ_EMPTY, the list the paper's modified getblk draws from).
	emptyHdrs *Buf

	// Sticky per-device write errors: a failed asynchronous write has
	// no caller left to report to (biodone's brelse invalidates the
	// buffer), so the first error per device is latched here and
	// surfaced at the next fsync/close/SyncAll. werrN counts every
	// async write failure per device, latched or not, so a flush can
	// tell a failure of its own writes from a latch that predates it.
	werrs map[Device]error
	werrN map[Device]int64

	// Readahead budget: at most raMax asynchronous readahead fetches
	// may be in flight at once — an eighth of the pool, at least two —
	// so a deep window cannot monopolize the pool and starve demand
	// fetches. raPending counts in-flight readahead reads (issued,
	// biodone not yet run).
	raMax     int
	raPending int

	// Stats
	hits          int64
	misses        int64
	reads         int64
	writes        int64
	delwrites     int64
	recycles      int64
	flushes       int64
	raIssued      int64
	raHits        int64
	raWaste       int64
	clusterRuns   int64
	clusterBlocks int64
}

// NewCache builds a cache of nbuf buffers of blockSize bytes each,
// attached to kernel k for sleeping/charging.
func NewCache(k *kernel.Kernel, nbuf, blockSize int) *Cache {
	if nbuf < 4 {
		panic("buf: cache needs at least 4 buffers")
	}
	if blockSize <= 0 {
		panic("buf: blockSize must be positive")
	}
	c := &Cache{
		k:         k,
		blockSize: blockSize,
		pool:      make([]Buf, nbuf),
		hash:      make([]*Buf, hashSize(nbuf)),
		slab:      sim.GetSlab(nbuf * blockSize),
		werrs:     make(map[Device]error),
		werrN:     make(map[Device]int64),
		nbuf:      nbuf,
		raMax:     max(nbuf/8, 2),
	}
	for i := range c.pool {
		b := &c.pool[i]
		b.pool, b.Data, b.Flags = c, c.slab[i*blockSize:][:blockSize:blockSize], BInval
		c.freePush(b, false)
	}
	return c
}

// Release ends the cache's life: the buffer memory is cleared and rests
// for the next NewCache of this size. Any later getblk panics.
func (c *Cache) Release() {
	if c.slab == nil {
		panic("buf: cache released twice")
	}
	clear(c.slab)
	sim.PutSlab(c.slab)
	c.slab = nil
}

// hashSize is the smallest power of two holding nbuf chains.
func hashSize(nbuf int) int {
	n := 1
	for n < nbuf {
		n <<= 1
	}
	return n
}

// BlockSize returns the cache's buffer size.
func (c *Cache) BlockSize() int { return c.blockSize }

// NumBuffers returns the size of the buffer pool.
func (c *Cache) NumBuffers() int { return c.nbuf }

// FreeBuffers returns how many buffers are on the free list.
func (c *Cache) FreeBuffers() int { return c.nfree }

// ReadaheadPending returns how many readahead fetches are in flight.
func (c *Cache) ReadaheadPending() int { return c.raPending }

// Stats describes cache activity since boot.
type Stats struct {
	Hits, Misses                 int64
	Reads, Writes, DelayedWrites int64
	Recycles, Flushes            int64

	// Readahead accounting: asynchronous fetches issued ahead of any
	// reader, those later consumed by a lookup, and those evicted or
	// invalidated without ever being referenced.
	RaIssued, RaHits, RaWaste int64

	// Write clustering: contiguous dirty runs (>= 2 adjacent blocks)
	// issued back to back by flush passes, and the blocks they covered.
	ClusterRuns, ClusterBlocks int64
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Reads: c.reads, Writes: c.writes, DelayedWrites: c.delwrites,
		Recycles: c.recycles, Flushes: c.flushes,
		RaIssued: c.raIssued, RaHits: c.raHits, RaWaste: c.raWaste,
		ClusterRuns: c.clusterRuns, ClusterBlocks: c.clusterBlocks,
	}
}

// ---- free list management ----

func (c *Cache) freePush(b *Buf, front bool) {
	if b.onFree {
		panic("buf: freePush of buffer already on free list")
	}
	b.onFree = true
	c.nfree++
	if c.freeHead == nil {
		c.freeHead, c.freeTail = b, b
		return
	}
	if front {
		b.freeNext = c.freeHead
		c.freeHead.freePrev = b
		c.freeHead = b
	} else {
		b.freePrev = c.freeTail
		c.freeTail.freeNext = b
		c.freeTail = b
	}
}

func (c *Cache) freeRemove(b *Buf) {
	if !b.onFree {
		panic("buf: freeRemove of buffer not on free list")
	}
	if b.freePrev != nil {
		b.freePrev.freeNext = b.freeNext
	} else {
		c.freeHead = b.freeNext
	}
	if b.freeNext != nil {
		b.freeNext.freePrev = b.freePrev
	} else {
		c.freeTail = b.freePrev
	}
	b.freePrev, b.freeNext = nil, nil
	b.onFree = false
	c.nfree--
}

// bucket returns the index of the hash chain block blkno lives on.
func (c *Cache) bucket(blkno int64) int { return int(blkno) & (len(c.hash) - 1) }

func (c *Cache) hashInsert(b *Buf) {
	head := &c.hash[c.bucket(b.Blkno)]
	b.hashNext = *head
	*head = b
	b.hashed = true
}

func (c *Cache) hashRemove(b *Buf) {
	if !b.hashed {
		return
	}
	for link := &c.hash[c.bucket(b.Blkno)]; *link != nil; link = &(*link).hashNext {
		if *link == b {
			*link = b.hashNext
			break
		}
	}
	b.hashNext = nil
	b.hashed = false
}

// Peek returns the cached buffer for (dev, blkno) without claiming it,
// or nil. Used by fsync-style scans.
func (c *Cache) Peek(dev Device, blkno int64) *Buf {
	for b := c.hash[c.bucket(blkno)]; b != nil; b = b.hashNext {
		if b.Dev == dev && b.Blkno == blkno && b.Flags&BInval == 0 {
			return b
		}
	}
	return nil
}

// ---- getblk and friends ----

// Getblk returns a locked (BBusy) buffer for (dev, blkno). If the block
// is cached the cached buffer is returned (BDone will be set if its
// contents are valid). Otherwise an LRU buffer is recycled — pushing
// out a delayed write first if necessary — and returned with BDone
// clear. May sleep; the ctx must allow sleeping.
func (c *Cache) Getblk(ctx kernel.Ctx, dev Device, blkno int64) *Buf {
	b, err := c.getblk(ctx, dev, blkno, true, false)
	if err != nil {
		panic("buf: blocking getblk returned error: " + err.Error())
	}
	return b
}

// GetblkNB is the non-blocking getblk used at interrupt level (splice):
// it returns kernel.ErrWouldBlock instead of sleeping when the buffer
// is busy or no buffer can be recycled without waiting.
func (c *Cache) GetblkNB(ctx kernel.Ctx, dev Device, blkno int64) (*Buf, error) {
	return c.getblk(ctx, dev, blkno, false, false)
}

// getblk claims a buffer for (dev, blkno). quiet suppresses hit/miss
// accounting and trace events: the readahead issue path uses it so
// speculative fetches do not masquerade as demand lookups.
func (c *Cache) getblk(ctx kernel.Ctx, dev Device, blkno int64, canSleep, quiet bool) (*Buf, error) {
	if dev == nil {
		panic("buf: getblk on nil device")
	}
	if c.slab == nil {
		panic("buf: getblk on a released cache")
	}
	if blkno < 0 || blkno >= dev.DevBlocks() {
		panic(fmt.Sprintf("buf: getblk block %d out of range on %s", blkno, dev.DevName()))
	}
	// The quiet (readahead-issue) path charges no lookup cost: it runs
	// inside a demand lookup whose BufHashCost is calibrated against the
	// measured system, where the per-block overhead already included
	// breada's probe — billing the probe separately would double-count.
	if !quiet {
		ctx.Use(c.k.Config().BufHashCost)
	}
	for {
		if b := c.Peek(dev, blkno); b != nil {
			if b.Flags&BBusy != 0 {
				if !canSleep {
					return nil, kernel.ErrWouldBlock
				}
				b.Flags |= BWanted
				if err := ctx.Sleep(b, kernel.PRIBIO+1); err != nil {
					return nil, err
				}
				continue // re-lookup: the buffer may have been recycled
			}
			c.freeRemove(b)
			b.Flags |= BBusy
			if !quiet {
				var ra int64
				if b.Flags&BReadahead != 0 {
					// First demand reference to a readahead buffer:
					// consume the flag and count the hit as a
					// readahead hit (Arg2 = 1 in the event).
					b.Flags &^= BReadahead
					c.raHits++
					ra = 1
				}
				c.hits++
				c.k.TraceEmit(trace.KindBufHit, 0, blkno, ra, dev.DevName())
			}
			return b, nil
		}
		// Miss: recycle from the head of the free list.
		if !quiet {
			c.misses++
			c.k.TraceEmit(trace.KindBufMiss, 0, blkno, 0, dev.DevName())
		}
		b, err := c.reclaim(ctx, canSleep)
		if err != nil {
			return nil, err
		}
		if b == nil {
			continue // slept waiting for a free buffer; retry lookup
		}
		c.hashRemove(b)
		c.retireRA(b)
		b.Dev = dev
		b.Blkno = blkno
		b.Bcount = c.blockSize
		b.Flags = BBusy
		b.Err = nil
		b.Resid = 0
		b.Iodone = nil
		b.SpliceDesc = nil
		b.SpliceLblk = 0
		b.SplicePeer = nil
		c.hashInsert(b)
		return b, nil
	}
}

// reclaim pops a reusable buffer from the free list, starting delayed
// writes as it encounters them (as 4.2BSD getblk does). Returns nil
// with no error if it had to sleep (caller retries), or ErrWouldBlock
// in non-blocking mode when nothing is immediately reusable.
func (c *Cache) reclaim(ctx kernel.Ctx, canSleep bool) (*Buf, error) {
	for {
		b := c.freeHead
		if b == nil {
			if !canSleep {
				return nil, kernel.ErrWouldBlock
			}
			// Every buffer is busy: wait for a release.
			if err := ctx.Sleep(&c.freeHead, kernel.PRIBIO+1); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if b.Flags&BDelwri != 0 {
			// Push the delayed write out asynchronously and look again.
			c.freeRemove(b)
			b.Flags |= BBusy
			c.Bawrite(ctx, b)
			continue
		}
		c.freeRemove(b)
		c.recycles++
		return b, nil
	}
}

// Brelse unlocks the buffer and returns it to the free list, waking any
// waiters, as 4.2BSD brelse(). Callable from interrupt context.
func (c *Cache) Brelse(ctx kernel.Ctx, b *Buf) {
	if b.Flags&BBusy == 0 {
		panic("buf: brelse of non-busy buffer " + b.String())
	}
	if b.Flags&BNoMem != 0 {
		panic("buf: brelse of header-only buffer (use ReleaseHeader)")
	}
	if b.Flags&BWanted != 0 {
		b.Flags &^= BWanted
		c.k.Wakeup(b)
	}
	if b.Flags&(BError|BInval) != 0 {
		// Unusable contents: recycle first and drop from the hash. A
		// readahead that errored (or was dropped by a crash) was never
		// consumed — account the waste before the flags are wiped.
		c.retireRA(b)
		c.hashRemove(b)
		b.Flags = BInval
		c.freePush(b, true)
	} else {
		front := b.Flags&BAge != 0
		b.Flags &^= BBusy | BAsync | BAge
		c.freePush(b, front)
	}
	// Anyone waiting for any free buffer.
	c.k.Wakeup(&c.freeHead)
}

// Bread returns a buffer containing block blkno of dev, reading it from
// the device if it is not cached. The returned buffer is busy; release
// with Brelse. Blocks until the I/O completes (biowait), so the ctx
// must allow sleeping.
func (c *Cache) Bread(ctx kernel.Ctx, dev Device, blkno int64) (*Buf, error) {
	b := c.Getblk(ctx, dev, blkno)
	if b.Flags&BDone != 0 {
		return b, nil
	}
	b.Flags |= BRead
	c.reads++
	dev.Strategy(b)
	if err := c.Biowait(ctx, b); err != nil {
		c.Brelse(ctx, b)
		return nil, err
	}
	return b, nil
}

// StartReadahead issues an asynchronous speculative read of (dev,
// blkno): the buffer is fetched with BReadahead set and released by
// biodone, staying cached until a demand lookup consumes it. It never
// sleeps. The return value reports whether the block is covered — true
// when it is already cached or an async read was started, false when
// the cache is out of readahead resources (budget exhausted, or no
// buffer reclaimable without sleeping); callers
// extending a window should stop at the first false.
func (c *Cache) StartReadahead(ctx kernel.Ctx, dev Device, blkno int64) bool {
	if dev == nil || blkno < 0 || blkno >= dev.DevBlocks() {
		return false
	}
	if c.Peek(dev, blkno) != nil {
		return true
	}
	if c.raPending >= c.raMax {
		return false
	}
	b, err := c.getblk(ctx, dev, blkno, false, true)
	if err != nil {
		return false
	}
	if b.Flags&BDone != 0 {
		c.Brelse(ctx, b)
		return true
	}
	b.Flags |= BRead | BAsync | BReadahead
	c.raPending++
	c.raIssued++
	c.reads++
	c.k.TraceEmit(trace.KindBufReadahead, 0, blkno, int64(c.raPending), dev.DevName())
	dev.Strategy(b)
	return true
}

// retireRA clears BReadahead from a buffer that is being recycled or
// invalidated without ever having been referenced, counting the fetch
// as waste (KindBufReadahead with Arg2 = -1).
func (c *Cache) retireRA(b *Buf) {
	if b.Flags&BReadahead == 0 {
		return
	}
	b.Flags &^= BReadahead
	c.raWaste++
	name := ""
	if b.Dev != nil {
		name = b.Dev.DevName()
	}
	c.k.TraceEmit(trace.KindBufReadahead, 0, b.Blkno, -1, name)
}

// Bwrite writes the buffer synchronously: it waits for completion and
// releases the buffer.
func (c *Cache) Bwrite(ctx kernel.Ctx, b *Buf) error {
	b.Flags &^= BRead | BDelwri | BDone | BAsync
	c.writes++
	b.Dev.Strategy(b)
	err := c.Biowait(ctx, b)
	c.Brelse(ctx, b)
	return err
}

// Bawrite starts an asynchronous write; the buffer is released by
// biodone when the I/O completes. Callable from interrupt context.
func (c *Cache) Bawrite(ctx kernel.Ctx, b *Buf) {
	b.Flags &^= BRead | BDelwri | BDone
	b.Flags |= BAsync
	c.writes++
	b.Dev.Strategy(b)
}

// Bdwrite marks the buffer dirty (delayed write) and releases it; the
// data goes to disk when the buffer is recycled or flushed.
func (c *Cache) Bdwrite(ctx kernel.Ctx, b *Buf) {
	b.Flags |= BDelwri | BDone
	c.delwrites++
	c.Brelse(ctx, b)
}

// Biowait blocks until the buffer's I/O completes, returning any I/O
// error, as 4.2BSD biowait().
func (c *Cache) Biowait(ctx kernel.Ctx, b *Buf) error {
	for b.Flags&BDone == 0 {
		if err := ctx.Sleep(b, kernel.PRIBIO); err != nil {
			return err
		}
	}
	if b.Flags&BError != 0 {
		if b.Err != nil {
			return b.Err
		}
		return kernel.ErrNxIO
	}
	return nil
}

// Biodone is called by device drivers at interrupt level when a
// transfer finishes: it marks the buffer done and either invokes the
// BCall handler, releases an async buffer, or wakes sleepers in
// biowait. This is the hook the splice read/write handlers hang off.
func (c *Cache) Biodone(b *Buf) {
	if b.Flags&BDone != 0 {
		panic("buf: biodone on already-done buffer " + b.String())
	}
	b.Flags |= BDone
	if b.Flags&BReadahead != 0 {
		// A readahead fetch completed (or was dropped with an error by
		// a crash); it no longer holds a slot of the budget. The flag
		// itself survives until a lookup consumes it or the buffer is
		// retired.
		c.raPending--
	}
	if b.Flags&BCall != 0 {
		b.Flags &^= BCall
		if b.Iodone == nil {
			panic("buf: BCall set with nil Iodone")
		}
		b.Iodone(c.k, b)
		return
	}
	if b.Flags&BAsync != 0 {
		if b.Flags&(BError|BRead) == BError {
			// Failed async write: brelse below invalidates the buffer,
			// so latch the error or it is lost with the data.
			c.noteWriteError(b)
		}
		c.Brelse(c.k.IntrCtx(), b)
		return
	}
	c.k.Wakeup(b)
}

// noteWriteError latches the first async-write error seen on a device
// and counts the failure.
func (c *Cache) noteWriteError(b *Buf) {
	c.werrN[b.Dev]++
	if _, ok := c.werrs[b.Dev]; !ok {
		err := b.Err
		if err == nil {
			err = kernel.ErrIO
		}
		c.werrs[b.Dev] = err
	}
}

// WriteError returns the sticky write error latched for dev, if any,
// without consuming it.
func (c *Cache) WriteError(dev Device) error { return c.werrs[dev] }

// TakeWriteError returns and clears the sticky write error for dev. A
// latched error is reported exactly once, at the first fsync, close or
// SyncAll that looks; later syncs of unaffected data succeed again.
func (c *Cache) TakeWriteError(dev Device) error {
	err := c.werrs[dev]
	delete(c.werrs, dev)
	return err
}

// ---- splice support ----

// StartRead issues an asynchronous read of (dev, blkno) with iodone
// installed as the B_CALL completion handler — the paper's modified
// bread() with the biowait removed (§5.3). It never sleeps: at
// interrupt level it returns ErrWouldBlock if no buffer is available.
// If the block is already cached and valid, the handler is invoked
// immediately (from the caller's context) rather than via the device;
// hit reports that case.
func (c *Cache) StartRead(ctx kernel.Ctx, dev Device, blkno int64, desc any, lblk int64, iodone func(*kernel.Kernel, *Buf)) (hit bool, err error) {
	b, err := c.getblk(ctx, dev, blkno, ctx.CanSleep(), false)
	if err != nil {
		return false, err
	}
	b.SpliceDesc = desc
	b.SpliceLblk = lblk
	if b.Flags&BDone != 0 {
		// Cache hit: data already valid.
		iodone(c.k, b)
		return true, nil
	}
	b.Flags |= BRead | BCall
	b.Iodone = iodone
	c.reads++
	dev.Strategy(b)
	return false, nil
}

// AllocHeader returns a bare buffer header with no data memory — the
// paper's modified getblk() that "avoids allocating any real memory to
// the buffer, but rather only sets the b_bcount field" (§5.4). The
// header is not entered in the cache hash.
func (c *Cache) AllocHeader(dev Device, blkno int64) *Buf {
	b := c.emptyHdrs
	if b == nil {
		b = &Buf{pool: c}
	} else {
		c.emptyHdrs, b.freeNext = b.freeNext, nil
	}
	b.Flags, b.Dev, b.Blkno, b.Bcount = BBusy|BNoMem, dev, blkno, c.blockSize
	return b
}

// ReleaseHeader returns a header obtained from AllocHeader to the empty
// list: the caller must hold no reference to it afterwards.
func (c *Cache) ReleaseHeader(b *Buf) {
	if b.Flags&BNoMem == 0 {
		panic("buf: ReleaseHeader of pooled buffer")
	}
	*b = Buf{pool: c, Flags: BInval, freeNext: c.emptyHdrs}
	c.emptyHdrs = b
}

// ---- flushing / invalidation ----

// FlushDev writes out every delayed-write buffer belonging to dev. The
// writes are issued asynchronously back-to-back and then awaited, which
// is what a streaming fsync achieves on the real system. Returns the
// number of blocks written.
func (c *Cache) FlushDev(ctx kernel.Ctx, dev Device) (int, error) {
	if !ctx.CanSleep() {
		panic("buf: FlushDev requires process context")
	}
	var dirty []*Buf
	for b := c.freeHead; b != nil; b = b.freeNext {
		if b.Dev == dev && b.Flags&BDelwri != 0 {
			dirty = append(dirty, b)
		}
	}
	return c.flushBufs(ctx, dirty)
}

// FlushBlocks forces any delayed-write buffers among the given physical
// blocks of dev to the device and waits (per-file fsync, driven by the
// file's block map). Returns the number of blocks written.
func (c *Cache) FlushBlocks(ctx kernel.Ctx, dev Device, blknos []int64) (int, error) {
	if !ctx.CanSleep() {
		panic("buf: FlushBlocks requires process context")
	}
	var dirty []*Buf
	for _, bn := range blknos {
		if b := c.Peek(dev, bn); b != nil && b.Flags&BDelwri != 0 && b.Flags&BBusy == 0 {
			dirty = append(dirty, b)
		}
	}
	return c.flushBufs(ctx, dirty)
}

// clusterDirty orders a dirty batch by (device, block number) so that
// adjacent dirty blocks reach the driver back to back — with the
// device's elevator they then service as one contiguous sweep — and
// emits a disk.cluster event for every run of two or more adjacent
// blocks.
func (c *Cache) clusterDirty(dirty []*Buf) {
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].Dev != dirty[j].Dev {
			return dirty[i].Dev.DevName() < dirty[j].Dev.DevName()
		}
		return dirty[i].Blkno < dirty[j].Blkno
	})
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && dirty[j].Dev == dirty[i].Dev &&
			dirty[j].Blkno == dirty[j-1].Blkno+1 {
			j++
		}
		if n := j - i; n >= 2 {
			c.clusterRuns++
			c.clusterBlocks += int64(n)
			c.k.TraceEmit(trace.KindDiskCluster, 0, dirty[i].Blkno, int64(n), dirty[i].Dev.DevName())
		}
		i = j
	}
}

func (c *Cache) flushBufs(ctx kernel.Ctx, dirty []*Buf) (int, error) {
	c.flushes++
	c.k.TraceEmit(trace.KindBufFlush, 0, int64(len(dirty)), 0, "")
	c.clusterDirty(dirty)
	// Record the devices involved now: an errored buffer is recycled by
	// the time the drain loop observes it, so b.Dev is unreliable later.
	var devs []Device
	for _, b := range dirty {
		seen := false
		for _, d := range devs {
			if d == b.Dev {
				seen = true
				break
			}
		}
		if !seen && b.Dev != nil {
			devs = append(devs, b.Dev)
		}
	}
	before := make([]int64, len(devs))
	for i, dev := range devs {
		before[i] = c.werrN[dev]
	}
	for _, b := range dirty {
		c.freeRemove(b)
		b.Flags |= BBusy
		c.Bawrite(ctx, b)
	}
	// Wait for all of them to drain: async buffers are re-released to
	// the free list by biodone, clearing BDelwri on the way out.
	for _, b := range dirty {
		for b.Flags&BBusy != 0 {
			b.Flags |= BWanted
			if err := ctx.Sleep(b, kernel.PRIBIO+1); err != nil {
				return 0, err
			}
		}
	}
	// A failed write never shows on the buffer here: biodone's brelse
	// invalidates it (clearing BError) before this waiter runs; the
	// failure lands in the sticky per-device latch instead. Report a
	// failure of THIS flush's writes — detected by the per-device
	// failure count moving — without touching the latch itself: whether
	// the latch is consumed (fsync, close, SyncAll) or only observed
	// (msync) is the caller's policy, and a latch that predates this
	// flush belongs to whichever sync path reaches it first.
	for i, dev := range devs {
		if c.werrN[dev] == before[i] {
			continue
		}
		if err := c.werrs[dev]; err != nil {
			return 0, err
		}
		return 0, kernel.ErrIO
	}
	return len(dirty), nil
}

// InvalidateBlocks drops any cached copies of the given physical blocks
// of dev, writing delayed-write data out first. The splice write engine
// uses it on the destination's block table: spliced data reaches disk
// through memory-less headers, bypassing the cache, so a cached copy
// left behind would shadow the new data on later reads — and a dirty
// one would clobber it when eventually flushed.
func (c *Cache) InvalidateBlocks(ctx kernel.Ctx, dev Device, blknos []int64) error {
	if !ctx.CanSleep() {
		panic("buf: InvalidateBlocks requires process context")
	}
	for _, bn := range blknos {
		for {
			b := c.Peek(dev, bn)
			if b == nil {
				break
			}
			if b.Flags&BBusy != 0 {
				b.Flags |= BWanted
				if err := ctx.Sleep(b, kernel.PRIBIO+1); err != nil {
					return err
				}
				continue // re-lookup: the buffer may have been recycled
			}
			if b.Flags&BDelwri != 0 {
				if _, err := c.flushBufs(ctx, []*Buf{b}); err != nil {
					return err
				}
				continue // re-check: the flush slept
			}
			c.freeRemove(b)
			c.hashRemove(b)
			c.retireRA(b)
			b.Flags = BInval
			b.Dev = nil
			c.freePush(b, true)
			break
		}
	}
	return nil
}

// Crash models the cache side of a power cut for dev (nil = every
// device): all buffered state is volatile, so every cached block is
// discarded without being written — delayed writes that have not hit
// the platter are simply lost, exactly the state fsck repair must put
// back together. The machine must be quiesced at the crash point (no
// transfer in progress, no process mid-operation); a busy buffer
// belonging to dev is a harness error and panics. Returns the number
// of delayed-write buffers lost and the total discarded.
func (c *Cache) Crash(dev Device) (dirtyLost, discarded int) {
	for _, b := range c.hash {
		for ; b != nil; b = b.hashNext {
			if (dev == nil || b.Dev == dev) && b.Flags&BBusy != 0 {
				panic("buf: crash with busy buffer " + b.String())
			}
		}
	}
	var victims []*Buf
	for b := c.freeHead; b != nil; b = b.freeNext {
		if (dev == nil || b.Dev == dev) && b.Flags&BInval == 0 {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		if b.Flags&BDelwri != 0 {
			dirtyLost++
		}
		c.freeRemove(b)
		c.hashRemove(b)
		c.retireRA(b)
		b.Flags = BInval
		b.Dev = nil
		b.Err = nil
		c.freePush(b, true)
	}
	// The volume is being reset to its durable state: a latched write
	// error describes data that no longer exists.
	if dev == nil {
		c.werrs = make(map[Device]error)
	} else {
		delete(c.werrs, dev)
	}
	return dirtyLost, len(victims)
}

// InvalidateDev drops every non-busy cached block of dev (dirty blocks
// are written first), producing the "read cache cold start condition"
// the paper's experiments require (§6.1).
func (c *Cache) InvalidateDev(ctx kernel.Ctx, dev Device) error {
	if _, err := c.FlushDev(ctx, dev); err != nil {
		return err
	}
	var victims []*Buf
	for b := c.freeHead; b != nil; b = b.freeNext {
		if b.Dev == dev && b.Flags&BInval == 0 {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		c.freeRemove(b)
		c.hashRemove(b)
		c.retireRA(b)
		b.Flags = BInval
		b.Dev = nil
		c.freePush(b, true)
	}
	return nil
}
