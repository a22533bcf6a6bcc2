package buf

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"

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

	// LRU free list of reusable buffers (intrusive doubly linked).
	freeHead *Buf
	freeTail *Buf
	nfree    int
	nbuf     int

	// Empty headers for AllocHeader, linked through freeNext (4.3BSD's
	// BQ_EMPTY, the list the paper's modified getblk draws from).
	emptyHdrs *Buf
	// zero is one block of zeros, the cache's reference held from NewCache
	// to Release (nil after: the cache is dead). Every buffer starts on it,
	// a read of a never-written block shares it, and a header standing for
	// a hole borrows it; its count never falls to 1, so nothing stores
	// into it.
	zero *sim.Block
	// hint is the copy hint (CopyOut, CopyIn): the block the last
	// whole-block copyout read, which the cache references until the next
	// one or Release, and the user memory it filled. nil for none.
	hint    *sim.Block
	hintMem *byte
	// Sticky per-device write errors: a failed asynchronous write has
	// no caller left to report to (biodone's brelse invalidates the
	// buffer), so the first error per device is latched here and
	// surfaced at the next fsync/close/SyncAll. werrN counts every
	// async write failure per device, latched or not, so a flush can
	// tell a failure of its own writes from a latch that predates it.
	werrs map[Device]error
	werrN map[Device]int64

	// Readahead budget: at most raMax (HoldBudget) asynchronous
	// readahead fetches may be in flight at once, so a deep window
	// cannot monopolize the pool and starve demand fetches. raPending
	// counts in-flight readahead reads (issued, biodone not yet run).
	raMax     int
	raPending int

	gen kernel.Gen // the catalog's generation (invariants.go)
	// ck is the touched walk's state (touched.go), made by the first
	// check: until then nothing reads what touch records, and a cache
	// nobody checks carries no shadow.
	ck *walker

	recycles int64 // Stats
}

// NewCache builds a cache of nbuf buffers of blockSize bytes each,
// attached to kernel k for sleeping/charging.
func NewCache(k *kernel.Kernel, nbuf, blockSize int) *Cache {
	if nbuf < 4 {
		panic("buf: cache needs at least 4 buffers")
	}
	if nbuf > maxPool {
		panic("buf: cache holds at most 65535 buffers")
	}
	if blockSize <= 0 {
		panic("buf: blockSize must be positive")
	}
	c := &Cache{
		k:         k,
		blockSize: blockSize,
		pool:      sim.NewTable[Buf](nbuf),
		hash:      sim.NewTable[*Buf](hashSize(nbuf)),
		zero:      sim.NewBlock(blockSize),
		werrs:     make(map[Device]error),
		werrN:     make(map[Device]int64),
		nbuf:      nbuf,
		raMax:     HoldBudget(nbuf),
	}
	for i := range c.pool {
		b := &c.pool[i]
		c.zero.Ref()
		b.pool, b.blk, b.Data, b.Flags = c, c.zero, c.zero.Bytes, BInval
		b.slot = uint16(i + 1)
		c.freePush(b, false)
	}
	return c
}

// HoldBudget is the share of an nbuf-buffer cache that each kind of
// buffer getblk cannot reclaim may take, an eighth and at least 2: it
// caps in-flight readahead, and machine.New sizes the page pool with it.
// NewCache's floor of 4 buffers keeps it at most half the cache.
func HoldBudget(nbuf int) int { return max(nbuf/8, 2) }

// Release ends the cache's life: it drops its references to the buffers'
// blocks, the zero block and the walker's shadow, and what no platter
// still references rests, cleared, for the next machine (the machine's
// spare blocks rest with the kernel's Spares), as do the header pool and
// the hash array. Any later getblk panics.
func (c *Cache) Release() {
	if c.zero == nil {
		panic("buf: cache released twice")
	}
	for i := range c.pool {
		b := &c.pool[i]
		b.blk.Unref()
		b.blk, b.Data = nil, nil
	}
	c.zero.Unref()
	c.hint.Unref()
	c.hint, c.hintMem = nil, nil
	if w := c.ck; w != nil {
		w.mem.Unref()
	}
	sim.RestTable(c.pool)
	sim.RestTable(c.hash)
	c.zero, c.ck, c.pool, c.hash = nil, nil, nil, nil
	c.gen.Bump()
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

// Stats is the cache's one counter of its own. Lookups, readahead,
// flushes and write clustering are counted by the trace (trace.Metrics,
// from the buf.* and disk.cluster events); recycles have no event.
type Stats struct {
	Recycles int64 // buffers getblk took off the free list for new blocks
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats { return Stats{Recycles: c.recycles} }

// ---- free list management ----

// The list and hash primitives mark every buffer whose links they
// write: b and its free-list neighbours are touched, b and its hash
// predecessor rehashed (touched.go).

func (c *Cache) freePush(b *Buf, front bool) {
	if b.onFree {
		panic("buf: freePush of buffer already on free list")
	}
	b.onFree = true
	c.nfree++
	c.touch(b)
	if w := c.ck; w != nil {
		b.stamp = w.nextStamp(front)
	}
	if c.freeHead == nil {
		c.freeHead, c.freeTail = b, b
		return
	}
	if front {
		b.freeNext = c.freeHead
		c.freeHead.freePrev = b
		c.touch(c.freeHead)
		c.freeHead = b
	} else {
		b.freePrev = c.freeTail
		c.freeTail.freeNext = b
		c.touch(c.freeTail)
		c.freeTail = b
	}
}

func (c *Cache) freeRemove(b *Buf) {
	if !b.onFree {
		panic("buf: freeRemove of buffer not on free list")
	}
	if b.freePrev != nil {
		b.freePrev.freeNext = b.freeNext
		c.touch(b.freePrev)
	} else {
		c.freeHead = b.freeNext
	}
	if b.freeNext != nil {
		b.freeNext.freePrev = b.freePrev
		c.touch(b.freeNext)
	} else {
		c.freeTail = b.freePrev
	}
	b.freePrev, b.freeNext = nil, nil
	b.onFree = false
	c.nfree--
	c.touch(b)
}

// bucket returns the index of the hash chain block blkno lives on.
func (c *Cache) bucket(blkno int64) int { return int(blkno) & (len(c.hash) - 1) }

func (c *Cache) hashInsert(b *Buf) {
	i := c.bucket(b.Blkno)
	b.hashNext = c.hash[i]
	c.hash[i] = b
	b.hashed = true
	c.rehash(b)
	c.touchChain(i)
}

func (c *Cache) hashRemove(b *Buf) {
	if !b.hashed {
		return
	}
	i := c.bucket(b.Blkno)
	var pred *Buf
	for x := c.hash[i]; x != nil; pred, x = x, x.hashNext {
		if x != b {
			continue
		}
		if pred == nil {
			c.hash[i] = b.hashNext
			c.touchChain(i)
		} else {
			pred.hashNext = b.hashNext
			c.rehash(pred)
		}
		break
	}
	b.hashNext = nil
	b.hashed = false
	c.rehash(b)
}

// Peek returns the cached buffer for (dev, blkno) without claiming it,
// or nil. Used by fsync-style scans.
func (c *Cache) Peek(dev Device, blkno int64) *Buf {
	if c.zero == nil {
		panic("buf: lookup on a released cache")
	}
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
	b, _, err := c.getblk(ctx, dev, blkno, true, false)
	if err != nil {
		panic("buf: blocking getblk returned error: " + err.Error())
	}
	return b
}

// GetblkNB is the non-blocking getblk used at interrupt level (splice):
// where getblk would sleep it returns kernel.ErrWouldBlock instead, with
// the channel it would have slept on, for the caller to wait on without
// sleeping (kernel.Park): the busy buffer, marked BWanted so that its
// Brelse wakes the channel, or the free list when no buffer can be
// recycled without waiting, which every Brelse wakes.
func (c *Cache) GetblkNB(ctx kernel.Ctx, dev Device, blkno int64) (b *Buf, wchan any, err error) {
	return c.getblk(ctx, dev, blkno, false, false)
}

// getblk claims a buffer for (dev, blkno). quiet suppresses hit/miss
// accounting and trace events: the readahead issue path uses it so
// speculative fetches do not masquerade as demand lookups. Where it may
// not sleep, it returns ErrWouldBlock and the channel it would have
// slept on.
func (c *Cache) getblk(ctx kernel.Ctx, dev Device, blkno int64, canSleep, quiet bool) (*Buf, any, error) {
	if dev == nil {
		panic("buf: getblk on nil device")
	}
	if c.zero == nil {
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
				c.want(b)
				if !canSleep {
					return nil, b, kernel.ErrWouldBlock
				}
				if err := ctx.Sleep(b, kernel.PRIBIO+1); err != nil {
					return nil, nil, err
				}
				continue // re-lookup: the buffer may have been recycled
			}
			c.claim(b)
			if !quiet {
				var ra int64
				if b.Flags&BReadahead != 0 {
					// First demand reference to a readahead buffer:
					// consume the flag and count the hit as a
					// readahead hit (Arg2 = 1 in the event).
					b.Flags &^= BReadahead
					ra = 1
				}
				c.k.TraceEmit(trace.KindBufHit, 0, blkno, ra, dev.DevName())
			}
			return b, nil, nil
		}
		// Miss: recycle from the head of the free list.
		if !quiet {
			c.k.TraceEmit(trace.KindBufMiss, 0, blkno, 0, dev.DevName())
		}
		b, err := c.reclaim(ctx, canSleep)
		if err == kernel.ErrWouldBlock {
			return nil, &c.freeHead, err
		}
		if err != nil {
			return nil, nil, err
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
		b.Iodone = nil
		b.SpliceDesc = nil
		b.SpliceLblk = 0
		b.SplicePeer = nil
		c.hashInsert(b) // its mark covers Bread, StartRead and StartReadahead setting up the read
		return b, nil, nil
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

// claim makes an idle buffer busy, taking it off the free list unless a
// page holds it.
func (c *Cache) claim(b *Buf) {
	if b.Flags&BHeld == 0 {
		c.freeRemove(b)
	}
	b.Flags |= BBusy
	c.touch(b)
}

// want marks busy b as waited for, before its caller sleeps on it.
func (c *Cache) want(b *Buf) {
	b.Flags |= BWanted
	c.touch(b)
}

// Brelse unlocks the buffer and returns it to the free list, waking any
// waiters, as 4.2BSD brelse(). A held buffer goes back to its page
// instead. Callable from interrupt context.
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
	c.touch(b)
	b.SpliceDesc = nil
	if b.Flags&BHeld != 0 {
		// A page's memory stays cached, and whole, whatever the transfer
		// did: a failed write latched its error in Biodone.
		if b.Flags&BInval != 0 {
			c.rehash(b) // valid again: a duplicate check's premise
		}
		b.Flags &^= BBusy | BAsync | BAge | BError | BInval
		b.Err = nil
		b.Bcount = c.blockSize
		return
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
	b, _, err := c.getblk(ctx, dev, blkno, false, true)
	if err != nil {
		return false
	}
	if b.Flags&BDone != 0 {
		c.Brelse(ctx, b)
		return true
	}
	b.Flags |= BRead | BAsync | BReadahead
	c.raPending++
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
	c.touch(b)
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
	c.touch(b)
	b.Dev.Strategy(b)
}

// Bdwrite marks the buffer dirty (delayed write) and releases it; the
// data goes to disk when the buffer is recycled or flushed.
func (c *Cache) Bdwrite(ctx kernel.Ctx, b *Buf) {
	b.Flags |= BDelwri | BDone
	c.Brelse(ctx, b)
}

// ---- mapped pages ----

// Hold releases b, which the caller has busy, to be a resident mapped
// page: it stays hashed, so read(), write() and the flushes find it,
// but off the free list, so getblk never recycles it, until Unhold.
// Stores through the page go through Dirty.
func (c *Cache) Hold(ctx kernel.Ctx, b *Buf) {
	b.Flags |= BHeld
	c.Brelse(ctx, b)
}

// Dirty stores src at off into held buffer b, a store through its page,
// and makes it a delayed write: it waits out a transfer in flight, which
// may lend b's block to the platter, and only then stores (CopyIn). It
// reports whether b was clean. With src empty it only makes b dirty.
func (c *Cache) Dirty(ctx kernel.Ctx, b *Buf, off int, src []byte) (clean bool) {
	for b.Flags&BBusy != 0 {
		c.want(b)
		_ = ctx.Sleep(b, kernel.PRIBIO+1)
	}
	if len(src) > 0 {
		c.CopyIn(b, off, src, off == 0 && len(src) == c.blockSize)
	}
	if b.Flags&BDelwri != 0 {
		return false
	}
	b.Flags |= BDelwri | BDone
	c.touch(b)
	return true
}

// Unhold ends b's hold without sleeping. An idle buffer returns to the
// free list, a busy one when its holder releases it. With write set a
// delayed write starts now and Biodone frees the buffer: the clock
// evicting a dirty page.
func (c *Cache) Unhold(ctx kernel.Ctx, b *Buf, write bool) {
	b.Flags &^= BHeld
	c.touch(b)
	switch {
	case b.Flags&BBusy != 0:
	case write && b.Flags&BDelwri != 0:
		b.Flags |= BBusy
		c.Bawrite(ctx, b)
	default:
		c.freePush(b, false)
		c.k.Wakeup(&c.freeHead)
	}
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
	c.touch(b)
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

// ClaimRead claims the buffer StartRead reads (dev, blkno) into. It
// sleeps only if ctx can: at interrupt level, where no buffer is
// available, it returns ErrWouldBlock and the channel to wait on, as
// GetblkNB does.
func (c *Cache) ClaimRead(ctx kernel.Ctx, dev Device, blkno int64) (b *Buf, wchan any, err error) {
	return c.getblk(ctx, dev, blkno, ctx.CanSleep(), false)
}

// StartRead issues an asynchronous read into b, claimed by ClaimRead,
// with iodone installed as the B_CALL completion handler — the paper's
// modified bread() with the biowait removed (§5.3). If the block is
// already cached and valid, the handler is invoked immediately (from
// the caller's context) rather than via the device; hit reports that
// case.
func (c *Cache) StartRead(b *Buf, desc any, lblk int64, iodone func(*kernel.Kernel, *Buf)) (hit bool) {
	b.SpliceDesc = desc
	b.SpliceLblk = lblk
	if b.Flags&BDone != 0 {
		// Cache hit: data already valid.
		iodone(c.k, b)
		return true
	}
	b.Flags |= BRead | BCall
	b.Iodone = iodone
	b.Dev.Strategy(b)
	return false
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

// ZeroBlock returns one block of zeros, the same memory at every call
// on this cache: the data area of a header that stands for a hole or
// zero-writes a block (Share). It is read-only; nothing may write
// through it.
func (c *Cache) ZeroBlock() []byte { return c.zero.Bytes }

// Share makes header hdr's data area b's — splice's aliasing write
// (§5.4) — or, with b nil, the zero block's. hdr borrows the block and
// holds no reference: b, busy, keeps its own until hdr is released, and
// nothing stores through hdr.
func (c *Cache) Share(hdr, b *Buf) {
	blk := c.zero
	if b != nil {
		blk = b.blk
	}
	hdr.blk, hdr.Data = blk, blk.Bytes
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

// PrepareWrite readies busy b, a pooled buffer or a header, for an
// asynchronous write whose completion runs iodone at interrupt level:
// the splice write side's buffers.
func (c *Cache) PrepareWrite(b *Buf, iodone func(*kernel.Kernel, *Buf)) {
	b.Flags &^= BRead | BDone | BDelwri // a staged page's buffer may be dirty
	b.Flags |= BCall
	b.Iodone = iodone
	c.touch(b)
}

// SetFlags sets flags on b, which its caller holds busy: a writer
// outside this package changes what the invariant catalog reads only
// through here.
func (c *Cache) SetFlags(b *Buf, flags int) {
	b.Flags |= flags
	if flags&placeFlags != 0 {
		c.rehash(b)
	} else {
		c.touch(b)
	}
}

// ---- block sharing ----

// A buffer's data is a block the cache shares, copy-on-write, with the
// device's platter and with other buffers: a read makes the buffer
// reference the platter's block (Load), a write makes the platter
// reference the buffer's (Lend), so a transfer moves a reference, not
// the bytes. The one way to store into a buffer is Store, which first
// gives the buffer a block of its own; a mapped page's buffer (BHeld)
// is no exception, its stores going through Dirty. User bytes enter
// and leave a buffer through CopyIn and CopyOut, and a copyin of the
// bytes the last whole-block copyout delivered shares their block
// instead of storing them (the copy hint). A delayed write's block is
// never its own platter entry's, whose bytes it changed
// (buf-block-owned).

// Store returns the data of pool buffer b for a caller that has b busy,
// or holds its page, to store into. A block b shares with a platter or
// another buffer is copied first, so the others keep their bytes, into
// one the machine let go of (kernel.Spares) if there is one, or else a
// zeroed one from sim's recycler: a rewrite draws the block the last one
// replaced, and a block's bytes stay on their machine until it is
// released. With whole set the caller overwrites every byte, and the
// block is replaced without the copy.
func (c *Cache) Store(b *Buf, whole bool) []byte {
	if b.blk.Shared() {
		blk := c.k.Spares().Get(c.blockSize)
		if !whole {
			copy(blk.Bytes, b.Data)
		}
		c.setBlock(b, blk)
	}
	return b.Data
}

// CopyOut copies b's data from off on into dst: a copyout to user
// memory. A copy of all of b's block, other than the zero block, leaves
// the copy hint: the cache takes a reference to the block, drops the
// last hint's, and remembers dst.
func (c *Cache) CopyOut(b *Buf, off int, dst []byte) {
	n := copy(dst, b.Data[off:])
	if off != 0 || n != c.blockSize || b.blk == c.zero {
		return
	}
	if b.blk != c.hint {
		b.blk.Ref()
		c.k.Spares().Drop(c.hint)
		c.hint = b.blk
	}
	c.hintMem = &dst[0]
	c.gen.Bump()
}

// CopyIn copies src into the data of busy pool buffer b at off: a copyin
// from user memory, through Store (whole: src covers the block). A
// copyin of a whole block from the memory the copy hint remembers, of
// the bytes the hint's block still holds, makes b share that block
// instead of drawing one (b may hold it already), unless it is b's own
// platter entry, which a delayed write may not hold (buf-block-owned).
// The byte compare decides, so a hint that is stale, or another
// process's, costs a compare and no more.
func (c *Cache) CopyIn(b *Buf, off int, src []byte, whole bool) {
	if h := c.hint; whole && h != nil && &src[0] == c.hintMem &&
		h != b.Dev.PlatterBlock(b.Blkno) && bytes.Equal(src, h.Bytes) {
		if h != b.blk {
			h.Ref()
			c.setBlock(b, h)
		}
		return
	}
	copy(c.Store(b, whole)[off:], src)
}

// Load completes a read of b from a platter whose entry is blk (nil
// reads as zeros): b shares the block.
func (c *Cache) Load(b *Buf, blk *sim.Block) {
	if blk == nil {
		blk = c.zero
	}
	blk.Ref()
	c.setBlock(b, blk)
}

// Lend returns the block a completed write of b hands the platter to
// share, or nil when b has none (a header over memory of its own) and
// the platter must take a copy of b.Data.
func (b *Buf) Lend() *sim.Block { return b.blk }

// setBlock makes pool buffer b reference blk, whose reference it takes
// over, and drops the one it held: the last one leaves it, uncleared,
// on the machine's spares for the next Store.
func (c *Cache) setBlock(b *Buf, blk *sim.Block) {
	c.k.Spares().Drop(b.blk)
	b.blk, b.Data = blk, blk.Bytes
}

// ---- flushing / invalidation ----

// FlushDev writes out every idle delayed-write buffer belonging to dev,
// held ones too. The writes are issued asynchronously back-to-back and
// then awaited, which is what a streaming fsync achieves on the real
// system. Returns the number of blocks written. As 4.3BSD's bflush, it
// skips busy buffers: its callers (SyncAll, InvalidateDev, the repair
// flush, and tests holding buffers of their own) want a device sweep.
func (c *Cache) FlushDev(ctx kernel.Ctx, dev Device) (int, error) {
	if !ctx.CanSleep() {
		panic("buf: FlushDev requires process context")
	}
	var dirty []*Buf
	for i := range c.pool {
		if b := &c.pool[i]; b.Dev == dev && b.Flags&(BDelwri|BBusy) == BDelwri {
			dirty = append(dirty, b)
		}
	}
	return c.flushBufs(ctx, dirty)
}

// FlushBlocks forces any delayed-write buffers among the given physical
// blocks of dev to the device and waits (per-file fsync, driven by the
// file's block map). Returns the number of blocks written. As 4.3BSD's
// blkflush, it then waits out each busy block it owes and looks again,
// so nothing dirty is left unwritten, and no failure unlatched.
func (c *Cache) FlushBlocks(ctx kernel.Ctx, dev Device, blknos []int64) (n int, err error) {
	if !ctx.CanSleep() {
		panic("buf: FlushBlocks requires process context")
	}
	// It owes a delayed write another process holds, and a write in flight,
	// not a buffer a splice holds: that waits on its peer, maybe the caller.
	owes := func(b *Buf) bool {
		return b != nil && b.Flags&BBusy != 0 && b.SpliceDesc == nil &&
			(b.Flags&BDelwri != 0 || b.Flags&(BRead|BDone) == 0)
	}
	var batch [16]*Buf // a batch of a few blocks stays on the stack
	for pass := 0; ; pass++ {
		dirty := batch[:0]
		var owed []int64
		for _, bn := range blknos {
			if b := c.Peek(dev, bn); b != nil && b.Flags&(BBusy|BDelwri) == BDelwri {
				dirty = append(dirty, b)
			} else if owes(b) {
				owed = append(owed, bn)
			}
		}
		if pass == 0 || len(dirty) > 0 {
			m, err := c.flushBufs(ctx, dirty)
			if err != nil {
				return 0, err
			}
			n += m
		}
		if len(owed) == 0 {
			return n, nil
		}
		if b := c.Peek(dev, owed[0]); owes(b) {
			c.want(b)
			if err := ctx.Sleep(b, kernel.PRIBIO+1); err != nil {
				return 0, err
			}
		}
		blknos = owed
	}
}

// clusterDirty orders a dirty batch by (device, block number) so that
// adjacent dirty blocks reach the driver back to back — the device's
// C-LOOK elevator then services them as one contiguous sweep — and
// emits a disk.cluster event for every run of two or more adjacent
// blocks.
func (c *Cache) clusterDirty(dirty []*Buf) {
	slices.SortFunc(dirty, func(a, b *Buf) int {
		if a.Dev != b.Dev {
			return strings.Compare(a.Dev.DevName(), b.Dev.DevName())
		}
		return cmp.Compare(a.Blkno, b.Blkno)
	})
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && dirty[j].Dev == dirty[i].Dev &&
			dirty[j].Blkno == dirty[j-1].Blkno+1 {
			j++
		}
		if n := j - i; n >= 2 {
			c.k.TraceEmit(trace.KindDiskCluster, 0, dirty[i].Blkno, int64(n), dirty[i].Dev.DevName())
		}
		i = j
	}
}

func (c *Cache) flushBufs(ctx kernel.Ctx, dirty []*Buf) (int, error) {
	c.k.TraceEmit(trace.KindBufFlush, 0, int64(len(dirty)), 0, "")
	c.clusterDirty(dirty)
	// Record the devices involved now: an errored buffer is recycled by
	// the time the drain loop observes it, so b.Dev is unreliable later.
	var devArr [4]Device
	var beforeArr [4]int64
	devs, before := devArr[:0], beforeArr[:0]
	for _, b := range dirty {
		if b.Dev != nil && !slices.Contains(devs, b.Dev) {
			devs, before = append(devs, b.Dev), append(before, c.werrN[b.Dev])
		}
	}
	for _, b := range dirty {
		c.claim(b)
		c.Bawrite(ctx, b)
	}
	// Wait for all of them to drain: async buffers are re-released to
	// the free list by biodone, clearing BDelwri on the way out.
	for _, b := range dirty {
		for b.Flags&BBusy != 0 {
			c.want(b)
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
// one would clobber it when eventually flushed. A held buffer is a
// mapped page and stays, written out if dirty: the splice writes
// through it.
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
				c.want(b)
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
			if b.Flags&BHeld == 0 {
				c.drop(b)
			}
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
// transfer in progress, no process mid-operation, no page mapped): a
// busy or held buffer belonging to dev is a harness error and panics,
// before anything is discarded. Returns the number of delayed-write
// buffers lost and the total discarded.
func (c *Cache) Crash(dev Device) (dirtyLost, discarded int) {
	for _, b := range c.hash {
		for ; b != nil; b = b.hashNext {
			if (dev == nil || b.Dev == dev) && b.Flags&(BBusy|BHeld) != 0 {
				panic("buf: crash with busy or held buffer " + b.String())
			}
		}
	}
	discarded, dirtyLost = c.dropIdle(dev)
	// The volume is being reset to its durable state: a latched write
	// error describes data that no longer exists.
	if dev == nil {
		c.werrs = make(map[Device]error)
	} else {
		delete(c.werrs, dev)
	}
	return dirtyLost, discarded
}

// InvalidateDev drops every cached block of dev that is neither busy nor
// held (dirty blocks are written first), producing the "read cache cold
// start condition" the paper's experiments require (§6.1).
func (c *Cache) InvalidateDev(ctx kernel.Ctx, dev Device) error {
	if _, err := c.FlushDev(ctx, dev); err != nil {
		return err
	}
	c.dropIdle(dev)
	return nil
}

// dropIdle drops every valid buffer of dev (nil = every device) on the
// free list, returning how many it dropped and how many were dirty.
func (c *Cache) dropIdle(dev Device) (n, dirty int) {
	var victims []*Buf
	for b := c.freeHead; b != nil; b = b.freeNext {
		if (dev == nil || b.Dev == dev) && b.Flags&BInval == 0 {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		if b.Flags&BDelwri != 0 {
			dirty++
		}
		c.drop(b)
	}
	return len(victims), dirty
}

// drop forgets idle buffer b's block: b goes, invalid, to the head of
// the free list.
func (c *Cache) drop(b *Buf) {
	c.freeRemove(b)
	c.hashRemove(b)
	c.retireRA(b)
	b.Flags, b.Dev, b.Err = BInval, nil, nil
	c.freePush(b, true) // touches b
}
