package splice

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// desc is the splice descriptor (§5.2): all state needed to run the
// transfer without the calling process. It holds what every transfer
// has; what only one kind of endpoint needs (block tables, parked or
// staged buffers, a source's EOF flag) lives on the side that uses it.
type desc struct {
	k    *kernel.Kernel
	opts Options

	rd    readSide
	wr    writeSide
	label string          // the pairing, for splice.start/done
	files []*kernel.FDesc // descriptors whose offsets the transfer consumes

	total int64    // bytes to move (after EOF resolution); EOF if unbounded
	moved int64    // bytes written so far
	began sim.Time // when the transfer was set up: the rate clock's origin

	// A block read is pending from its issue to its B_CALL handler, and
	// from there counts as a pending write — while queued on the callout
	// list, parked for in-order delivery, and on the device — until its
	// write completes. A source's chunk counts as a pending write only
	// once the write side has issued it.
	pendingReads  int
	pendingWrites int

	err        error
	stopped    bool // no further reads (error or interrupt)
	done       bool
	retryArmed bool
	scrubbing  bool // inside wr.scrub: a synchronous device settles re-entrantly

	async  bool
	caller *kernel.Proc

	// Handlers bound once at setup, so that issuing a write or arming a
	// retry builds no closure.
	onWriteDone func(*kernel.Kernel, *buf.Buf) // writeDone
	onRetry     func()                         // retry

	stats Stats
}

// readSide produces the transfer's data at interrupt level and hands
// each piece to the write side it was paired with.
type readSide interface {
	// open resolves the requested size against the source and maps what
	// will be read; it may sleep. A zero result means nothing to move.
	open(ctx kernel.Ctx, size int64) (total int64, err error)
	// start issues as many reads as flow control allows. It runs from
	// process context during setup and never sleeps afterwards.
	start(ctx kernel.Ctx)
	// exhausted reports that no further reads will be issued.
	exhausted() bool
	// cancel withdraws a read that may never complete (interrupt path).
	cancel()
	// bound checks the pending counts against this side's flow-control
	// bound (invariant splice-pending-bound).
	bound() error
}

// writeSide consumes the data; beyond the entry point its reader uses
// (blockWriter or chunkWriter) it answers the descriptor's questions.
type writeSide interface {
	// open maps the destination for total bytes; it may sleep.
	open(ctx kernel.Ctx, total int64) error
	// release returns the buffer of a completed write.
	release(b *buf.Buf)
	// abandon frees what will now never be written (error, interrupt).
	abandon()
	// resume retries data held back for want of a buffer.
	resume()
	// drained is asked once the read side is exhausted: issue whatever a
	// final short block was holding back, and report whether nothing
	// accepted from the read side is still waiting to be issued.
	drained() bool
	// scrub is asked once everything issued has completed: issue writes
	// covering what the transfer allocated but left unwritten, if any.
	scrub()
	// check verifies the side's own invariants.
	check() error
}

// holdsNothing supplies the answers of a write side that keeps no data
// of its own between accepting a piece and issuing its write.
type holdsNothing struct{}

func (holdsNothing) abandon()      {}
func (holdsNothing) resume()       {}
func (holdsNothing) drained() bool { return true }
func (holdsNothing) check() error  { return nil }

// setup resolves the size, maps both ends and primes the read pipeline.
func (d *desc) setup(p *kernel.Proc, size int64) error {
	ctx := p.Ctx()
	total, err := d.rd.open(ctx, size)
	if err != nil {
		return err
	}
	d.total = total
	if total == 0 {
		d.done = true
	} else {
		if err := d.wr.open(ctx, total); err != nil {
			return err
		}
		// "At this point, all information necessary to proceed with an
		// asynchronous data transfer has been stored in the splice
		// descriptor, and user-mode execution of the calling process may
		// be resumed." (§5.2)
		d.began = d.k.Now()
		d.k.Hold()
		d.k.Track(d)
		if d.async {
			d.advance(total)
		}
		d.rd.start(ctx)
	}
	d.k.TraceEmit(trace.KindSpliceStart, p.Pid(), d.total, 0, d.label)
	return nil
}

// advance consumes n bytes from the file descriptors, as read and write
// do: an async transfer is charged its whole size at setup, a
// synchronous one what it moved.
func (d *desc) advance(n int64) {
	for _, f := range d.files {
		f.Advance(n)
	}
}

// handlerCharge charges one handler execution at interrupt level.
func (d *desc) handlerCharge() {
	d.k.StealCPU(d.k.Config().SpliceHandlerCost)
}

// callout places fn at the head of the system callout list (§5.3).
func (d *desc) callout(fn func()) {
	d.stats.Callouts++
	d.k.Timeout(fn, 0)
}

// armRetry schedules a flow-control retry on the next clock tick, for a
// side that could not proceed without sleeping (no buffer, or over the
// pacing budget).
func (d *desc) armRetry() {
	if d.retryArmed || d.stopped {
		return
	}
	d.retryArmed = true
	d.k.TraceEmit(trace.KindSpliceStall, 0, int64(d.pendingReads), int64(d.pendingWrites), "")
	d.k.Timeout(d.onRetry, 1)
}

// retry is the callout armRetry queued.
func (d *desc) retry() {
	d.retryArmed = false
	d.wr.resume()
	d.rd.start(d.k.IntrCtx())
	d.settle()
}

// ioError returns the error a completed buffer carries, if any.
func ioError(b *buf.Buf) error {
	if b.Flags&buf.BError == 0 {
		return nil
	}
	if b.Err != nil {
		return b.Err
	}
	return kernel.ErrNxIO
}

// releaseBuf returns a read-side buffer: a synthesized hole block is a
// bare header, anything else goes back to the cache.
func releaseBuf(k *kernel.Kernel, c *buf.Cache, b *buf.Buf) {
	if b.Flags&buf.BNoMem != 0 {
		c.ReleaseHeader(b)
		return
	}
	c.Brelse(k.IntrCtx(), b)
}

// writeDone is the B_CALL handler of a device write.
func (d *desc) writeDone(_ *kernel.Kernel, hdr *buf.Buf) {
	d.written(hdr, hdr.SpliceN, ioError(hdr))
}

// written is the write-completion handler (§5.4): a write of n payload
// bytes out of b has finished. It releases the buffers, credits the
// bytes, then applies flow control.
func (d *desc) written(b *buf.Buf, n int, err error) {
	d.handlerCharge()
	d.wr.release(b)
	d.pendingWrites--
	d.k.TraceEmit(trace.KindSpliceWriteDone, 0, int64(n), int64(d.pendingWrites), "")
	if err != nil {
		d.fail(err)
		return
	}
	d.moved += int64(n)
	d.stats.BytesMoved += int64(n)
	d.settle()
	if d.done || d.stopped {
		return
	}
	// Rate-based flow control: "If the number of pending reads and the
	// number of pending writes drop below pre-specified watermarks
	// (currently 3 and 5, respectively), the write handler will issue
	// up to five additional reads." (§5.5)
	d.wr.resume()
	if d.pendingReads < d.opts.ReadWatermark && d.pendingWrites < d.opts.WriteWatermark {
		d.rd.start(d.k.IntrCtx())
	}
	d.settle()
}

// fail records the first error and stops issuing new work.
func (d *desc) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.stopped = true
	d.wr.abandon()
	d.settle()
}

// stop is the interrupt path: issue nothing more, cancel work that
// would otherwise never complete, and let in-flight I/O drain.
func (d *desc) stop() {
	d.stopped = true
	d.rd.cancel()
	d.wr.abandon()
	d.settle()
}

// settle is the one place that decides the transfer is over: nothing in
// flight, and either it was stopped or the read side has no more to
// read and the write side nothing left to issue. Before anyone is told —
// the kernel hold still in place — the write side covers what it left
// unwritten; those writes complete through written and settle again.
func (d *desc) settle() {
	over := d.stopped || (d.rd.exhausted() && d.wr.drained())
	if !over || d.pendingReads > 0 || d.pendingWrites > 0 || d.scrubbing {
		return
	}
	d.scrubbing = true
	d.wr.scrub()
	d.scrubbing = false
	if d.pendingWrites == 0 {
		d.complete()
	}
}

// complete finishes the splice: releases the kernel hold, posts SIGIO
// to an async caller, and wakes a synchronous waiter.
func (d *desc) complete() {
	if d.done {
		return // a write issued while settling completed synchronously and settled first
	}
	d.done = true
	errFlag := int64(0)
	if d.err != nil {
		errFlag = 1
	}
	d.k.TraceEmit(trace.KindSpliceDone, 0, d.moved, errFlag, d.label)
	d.k.Untrack(d)
	d.k.Release()
	if d.async && d.opts.OnDone == nil {
		d.k.Post(d.caller, kernel.SIGIO)
	}
	d.k.Wakeup(d)
	if d.opts.OnDone != nil {
		d.opts.OnDone()
	}
}
