package splice

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// ---- blocks: reading a file through its block table ----

// blockWriter is a write side that takes whole cache buffers: data is
// the part of b's data area the transfer covers.
type blockWriter interface {
	writeBlock(b *buf.Buf, data []byte)
}

// blocks reads a file a block at a time from any byte offset, with up
// to a refill batch of asynchronous reads in flight (§5.3, §5.5).
type blocks struct {
	d     *desc
	file  FileLike
	cache *buf.Cache
	wr    blockWriter

	bsize int64
	off   int64    // byte offset of the transfer in the file
	first int64    // logical block holding off; table[0] maps it
	table []uint32 // physical block numbers, 0 for a hole
	next  int64    // next table index to issue

	admitted int64 // bytes admitted so far by the rate clock

	// arrived is the blocks read that wait on the callout list for
	// handoff. Callouts queued for the same tick fire in the order they
	// were queued, so the handlers are bound once and handoff takes the
	// oldest.
	arrived    kernel.Queue[*buf.Buf]
	onReadDone func(*kernel.Kernel, *buf.Buf) // readDone
	onHandoff  func()                         // handoff
}

func newBlocks(d *desc, f FileLike, fd *kernel.FDesc, wr blockWriter) *blocks {
	c := f.BufCache()
	r := &blocks{d: d, file: f, cache: c, wr: wr, bsize: int64(c.BlockSize()), off: fd.Offset()}
	r.onReadDone, r.onHandoff = r.readDone, r.handoff
	return r
}

// open determines the size from the source gnode and builds the
// physical block table by successive bmap() calls (§5.2).
func (r *blocks) open(ctx kernel.Ctx, size int64) (int64, error) {
	fsize, err := r.file.Size(ctx)
	if err != nil {
		return 0, err
	}
	if avail := max(fsize-r.off, 0); size == EOF || size > avail {
		size = avail
	}
	if size == 0 {
		return 0, nil
	}
	r.first = r.off / r.bsize
	if r.table, err = r.file.SpliceMapRead(ctx, r.first, (r.off+size+r.bsize-1)/r.bsize); err != nil {
		return 0, err
	}
	return size, nil
}

func (r *blocks) exhausted() bool { return r.next >= int64(len(r.table)) }

func (r *blocks) cancel() {} // device reads always complete

// span returns the byte range of logical block lblk's data area that
// the transfer covers: all of it except before the starting offset in
// the first block and past the end of the transfer in the last.
func (r *blocks) span(lblk int64) (lo, hi int64) {
	abs := (r.first + lblk) * r.bsize
	return max(r.off-abs, 0), min(r.off+r.d.total-abs, r.bsize)
}

// start issues up to RefillBatch asynchronous reads (§5.5).
func (r *blocks) start(ctx kernel.Ctx) {
	d := r.d
	if d.stopped || d.done {
		return
	}
	for i := 0; i < d.opts.RefillBatch && !r.exhausted(); i++ {
		lblk := r.next
		if lo, hi := r.span(lblk); d.opts.RateBytesPerSec > 0 && !r.admit(hi-lo) {
			// Pacing: over budget; the callout list retries next tick.
			d.armRetry(nil)
			return
		}
		pblk := r.table[lblk]
		r.next++
		d.pendingReads++
		d.gen.Bump()
		if pblk == 0 {
			// Hole in the source: synthesize a zero-filled block. The
			// header is not part of the cache pool, so it is released
			// through the header path. The data area is a full block,
			// the cache's one read-only zero block: the write side
			// transfers whole blocks, and only reads them.
			d.issued(lblk)
			hdr := r.cache.AllocHeader(r.file.Dev(), 0)
			r.cache.Share(hdr, nil)
			r.cache.SetFlags(hdr, buf.BDone)
			hdr.SpliceDesc = d
			hdr.SpliceLblk = lblk
			r.readDone(d.k, hdr)
			continue
		}
		b, wchan, err := r.cache.ClaimRead(ctx, r.file.Dev(), int64(pblk))
		if err != nil {
			// No buffer available without sleeping: back off until the
			// buffer wanted, or any buffer, is released. Nothing was
			// issued.
			r.next--
			d.pendingReads--
			d.armRetry(wchan)
			return
		}
		d.issued(lblk)
		if r.cache.StartRead(b, d, lblk, r.onReadDone) {
			d.stats.CacheHits++
		}
	}
}

// admit checks the pacing budget and charges n bytes against it. One
// refill batch of slack lets the pipeline pre-buffer at start-up.
func (r *blocks) admit(n int64) bool {
	d := r.d
	budget := d.k.Now().Sub(d.began).Seconds()*d.opts.RateBytesPerSec +
		float64(d.opts.RefillBatch)*float64(r.bsize)
	if float64(r.admitted)+float64(n) > budget {
		return false
	}
	r.admitted += n
	return true
}

// readDone is the read-side B_CALL handler (§5.3): invoked at interrupt
// level when a source block arrives, it schedules the write side by
// placing it at the head of the system callout list.
func (r *blocks) readDone(_ *kernel.Kernel, b *buf.Buf) {
	d := r.d
	d.handlerCharge()
	d.pendingReads--
	d.gen.Bump()
	d.k.TraceEmit(trace.KindSpliceReadDone, 0, b.SpliceLblk, int64(d.pendingReads), "")
	err := d.err
	if err == nil {
		err = ioError(b)
	}
	if err != nil {
		releaseBuf(d.k, r.cache, b)
		d.fail(err)
		return
	}
	// From here the block counts as a pending write: it is queued for
	// the write side (via the callout list) until its write completes.
	// Counting it here keeps the flow-control watermarks honest about
	// blocks parked in the callout queue.
	d.pendingWrites++
	r.arrived.Push(b)
	d.callout(r.onHandoff)
}

// handoff runs from the callout list with a locked buffer containing
// valid source data (§5.4) and passes it to the write side, unless the
// transfer has failed in the meantime.
func (r *blocks) handoff() {
	d, b := r.d, r.arrived.Pop()
	d.handlerCharge()
	if d.err != nil {
		releaseBuf(d.k, r.cache, b)
		d.pendingWrites--
		d.gen.Bump()
		d.settle()
		return
	}
	lo, hi := r.span(b.SpliceLblk)
	r.wr.writeBlock(b, b.Data[lo:hi])
}

// bound: priming issues RefillBatch reads; a refill fires only when
// pendingReads < ReadWatermark and adds at most RefillBatch more, so
// reads are bounded by RW-1+RB. Every completed read becomes a pending
// write, and refills require pendingWrites < WriteWatermark, bounding
// writes by WW-1 + (RW-1+RB).
func (r *blocks) bound() error {
	d := r.d
	maxReads := d.opts.ReadWatermark - 1 + d.opts.RefillBatch
	if int(d.pendingReads) > maxReads {
		return kernel.Violation("splice-pending-bound", "%d pending reads exceed watermark bound %d", d.pendingReads, maxReads)
	}
	if maxWrites := d.opts.WriteWatermark - 1 + maxReads; int(d.pendingWrites) > maxWrites {
		return kernel.Violation("splice-pending-bound", "%d pending writes exceed watermark bound %d", d.pendingWrites, maxWrites)
	}
	return nil
}

// ---- source: reading a Source ----

// chunkWriter is a write side that takes byte chunks as a Source
// delivers them: data, a window of blk (or of no block, nil), with the
// splice's reference to blk, which the writer drops once it is done
// with the bytes.
type chunkWriter interface {
	writeChunk(data []byte, blk *sim.Block)
	// ready reports that the writer holds no earlier chunk back, so
	// reading another is worthwhile.
	ready() bool
}

// source reads a Source (socket, framebuffer, pipe) with one read
// outstanding at a time, stopping while the write side is above its
// watermark.
type source struct {
	d     *desc
	src   Source
	wr    chunkWriter
	chunk int // bytes asked for per read

	received    int64 // bytes handed to the write side so far
	eof         bool
	outstanding bool           // a read is parked in the Source, or its data is being handed over
	onDeliver   kernel.Deliver // delivered, bound once
}

func (r *source) open(_ kernel.Ctx, size int64) (int64, error) { return size, nil }

func (r *source) exhausted() bool {
	return r.eof || (r.d.total != EOF && r.received >= r.d.total)
}

// start issues the next read unless the transfer is fully scheduled, the
// write side is above its watermark (it restarts reads from its
// completion handler), or a read is already outstanding.
func (r *source) start(kernel.Ctx) {
	d := r.d
	if d.stopped || d.done || r.exhausted() || r.outstanding ||
		int(d.pendingWrites) >= d.opts.WriteWatermark || !r.wr.ready() {
		return
	}
	n := r.chunk
	if d.total != EOF {
		n = int(min(int64(n), d.total-r.received))
	}
	r.outstanding = true
	d.pendingReads++
	d.gen.Bump()
	d.issued(r.received)
	if r.onDeliver == nil {
		r.onDeliver = r.delivered
	}
	r.src.SpliceRead(n, r.onDeliver)
}

// delivered is the read handler: the Source has produced data (or EOF,
// or an error) at interrupt level.
func (r *source) delivered(data []byte, blk *sim.Block, eof bool, err error) {
	d := r.d
	d.handlerCharge()
	d.pendingReads--
	d.gen.Bump()
	d.k.TraceEmit(trace.KindSpliceReadDone, 0, int64(len(data)), int64(d.pendingReads), "")
	if err != nil {
		r.outstanding = false
		d.fail(err)
		return
	}
	// The chunk stays outstanding until the write side has all of it: a
	// write that completes synchronously inside writeChunk must neither
	// start the next read nor see the source as exhausted while part of
	// this chunk is still to be handed over.
	if len(data) > 0 {
		r.wr.writeChunk(data, blk)
	} else {
		d.k.Spares().Drop(blk)
	}
	r.received += int64(len(data))
	r.eof = r.eof || eof
	r.outstanding = false
	if r.exhausted() {
		d.settle()
		return
	}
	r.start(nil)
}

func (r *source) cancel() {
	if r.outstanding && r.src.CancelSpliceRead() {
		r.outstanding = false
		r.d.pendingReads--
		r.d.gen.Bump()
	}
}

// bound: at most one source read is ever outstanding.
func (r *source) bound() error {
	if r.d.pendingReads > 1 {
		return kernel.Violation("splice-pending-bound", "source reader with %d pending reads", r.d.pendingReads)
	}
	return nil
}
