// Package splice implements the paper's contribution: a system call
// that establishes a fast in-kernel data pathway between two I/O
// objects named by file descriptors, moving data asynchronously and
// without user-process intervention.
//
// Every transfer is one pipeline, the one §5 describes:
//
//   - A dynamically allocated splice descriptor (desc, pipeline.go)
//     holds all transfer state, so I/O proceeds without the calling
//     process's context (§5.2).
//   - A read side produces data at interrupt level and hands each piece
//     to the write side (read.go). Reading a file, it walks the table of
//     physical block numbers built up front by successive bmap() calls
//     and issues a modified bread with the biowait removed — an async
//     read with a B_CALL completion handler (§5.3). Reading a Source
//     (socket, framebuffer, pipe), it keeps one read outstanding.
//   - The read handler schedules the write side by placing it at the
//     head of the system callout list, decoupling the I/O access periods
//     of the source and sink devices (§5.3).
//   - A write side consumes the data (write.go). Into a file it obtains
//     a buffer header with no data memory (the modified getblk) and
//     aliases its data pointer to the read-side buffer, so no copy
//     occurs between cache buffers (§5.4); into a Sink it passes a slice
//     of that same buffer; from a Source into a file it stages the
//     arriving bytes into cache buffers, the one unavoidable copy.
//   - One write handler releases the buffers, credits the bytes moved
//     and restarts reads under rate-based flow control: when pending
//     reads and pending writes drop below the watermarks (3 and 5), up
//     to five additional reads are issued (§5.5).
//   - One completion rule (settle) decides when the transfer is over.
//
// SpliceOpts pairs a read side with a write side once, from what the two
// descriptors are; nothing afterwards asks which pairing is running.
// Sources and sinks beyond regular files participate through the small
// Source and Sink interfaces, which are satisfied structurally by
// internal/dev, internal/socket and internal/stream.
//
// The pipeline emits structured trace events (splice.start, the
// read/write pipeline with its pending-I/O gauges, stalls, and
// completion) through the kernel's tracer; the taxonomy is documented
// in docs/TRACING.md.
package splice

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// EOF is the special size value requesting that the splice run until
// the source reaches end of file (SPLICE_EOF in the paper).
const EOF int64 = -1

// Default flow-control parameters from the paper (§5.5): "If the number
// of pending reads and the number of pending writes drop below
// pre-specified watermarks (currently 3 and 5, respectively), the write
// handler will issue up to five additional reads."
const (
	DefaultReadWatermark  = 3
	DefaultWriteWatermark = 5
	DefaultRefillBatch    = 5
)

// Options tunes a splice. The zero value selects the paper's defaults.
type Options struct {
	// ReadWatermark, WriteWatermark and RefillBatch control the
	// rate-based flow control; zero selects the defaults (3, 5, 5).
	ReadWatermark  int
	WriteWatermark int
	RefillBatch    int

	// NoShare disables write-side buffer-header data aliasing: the
	// write side allocates real memory and copies between cache
	// buffers. Exists to measure what sharing buys (ablation C).
	NoShare bool

	// RateBytesPerSec, when positive, paces the transfer inside the
	// kernel: reads are issued so the average transfer rate tracks the
	// target (with one refill batch of start-up slack), using the
	// callout list as the pacing clock. This implements the paper's
	// continuous-media follow-up direction — steady kernel-paced
	// delivery without per-block process wakeups — as an alternative
	// to the §4 technique of small synchronous quanta timed by the
	// application.
	RateBytesPerSec float64

	// OnDone, when non-nil, runs when the transfer completes and
	// replaces the SIGIO completion signal for async transfers — a
	// caller collecting completions through a pollable queue has no
	// use for the signal, and suppressing it spares the poller a
	// broken sleep per transfer. OnDone executes at interrupt level
	// and must not sleep.
	OnDone func()
}

func (o Options) withDefaults() Options {
	if o.ReadWatermark <= 0 {
		o.ReadWatermark = DefaultReadWatermark
	}
	if o.WriteWatermark <= 0 {
		o.WriteWatermark = DefaultWriteWatermark
	}
	if o.RefillBatch <= 0 {
		o.RefillBatch = DefaultRefillBatch
	}
	return o
}

// FileLike is the view of a regular file the splice engine needs; it is
// satisfied by *fs.File.
type FileLike interface {
	Dev() buf.Device
	BufCache() *buf.Cache
	Size(ctx kernel.Ctx) (int64, error)
	// SpliceMapRead maps logical blocks [first, end) for reading, 0
	// for a hole.
	SpliceMapRead(ctx kernel.Ctx, first, end int64) ([]uint32, error)
	// SpliceMapWrite maps (allocating as needed) logical blocks [first,
	// end) for writing. The second slice flags blocks that were freshly
	// allocated by this call: their on-disk content is undefined, so a
	// partial write into one must zero the remainder.
	SpliceMapWrite(ctx kernel.Ctx, first, end int64) ([]uint32, []bool, error)
	// Extend grows the file size (never shrinks it).
	Extend(ctx kernel.Ctx, n int64)
}

// Sink consumes spliced data at interrupt level: character devices,
// sockets and the framebuffer implement it. done must be invoked
// exactly once when the sink has consumed the bytes and the underlying
// buffer may be reused — data is on loan until then; it may be called
// synchronously or later from an interrupt or callout. blk is the block
// data is a window of (a cache buffer's), or nil for bytes of no block:
// a sink that keeps the bytes past done takes a reference to blk rather
// than copying them, and never stores into it.
type Sink interface {
	SpliceWrite(data []byte, blk *sim.Block, done func(err error))
}

// Source produces spliced data at interrupt level (pipes, sockets,
// stream connections, the framebuffer). deliver must be invoked exactly
// once per SpliceRead — synchronously if data is waiting, or later when
// it arrives; eof reports that no further data will ever arrive. A
// source hands its bytes over by reference (kernel.Deliver): data is a
// window of blk, and the splice owns one reference to blk, which it
// passes to the Sink as its blk and drops when the Sink's done fires.
type Source interface {
	SpliceRead(max int, deliver kernel.Deliver)
	// CancelSpliceRead withdraws the pending read, if any; the deliver
	// callback will then never be invoked. Reports whether a read was
	// cancelled. An interrupted splice uses it so a source that never
	// delivers (an idle socket) cannot wedge the drain.
	CancelSpliceRead() bool
}

// Stats describes what no event carries of one splice's activity. The
// trace counts the rest: reads and writes issued (splice.read,
// splice.write), the peaks in flight (trace.Metrics' SplicePeak*), and
// the bytes moved (splice.done, or Handle.Moved).
type Stats struct {
	CacheHits int64 // source blocks found valid in the buffer cache
	Shared    int64 // write buffers that aliased read-side data
	Copied    int64 // write buffers that required a kernel copy
	Callouts  int64 // write-side dispatches through the callout list
}

// Splice implements the system call: move size bytes (or EOF for the
// rest of the source) from the object open on srcFD to the object open
// on dstFD, entirely inside the kernel. If either descriptor has the
// FASYNC status flag set (fcntl F_SETFL), the call returns as soon as
// the transfer is set up and the caller receives SIGIO on completion;
// otherwise it blocks until the data has been moved and returns the
// byte count.
func Splice(p *kernel.Proc, srcFD, dstFD int, size int64) (int64, error) {
	n, _, err := SpliceOpts(p, srcFD, dstFD, size, Options{})
	return n, err
}

// sourceChunk is how much a Source is asked for at a time when its data
// goes to a Sink (into a file it is asked for one block).
const sourceChunk = 8192

// SpliceOpts is Splice with explicit flow-control options, returning a
// Handle for observing an asynchronous transfer.
func SpliceOpts(p *kernel.Proc, srcFD, dstFD int, size int64, opts Options) (int64, *Handle, error) {
	defer p.SyscallExit(p.SyscallEnter("splice"))
	if size < 0 && size != EOF {
		return 0, nil, kernel.ErrInval
	}
	sfd, err := p.FD(srcFD)
	if err != nil {
		return 0, nil, err
	}
	dfd, err := p.FD(dstFD)
	if err != nil {
		return 0, nil, err
	}
	d := &desc{
		k:      p.Kernel(),
		opts:   opts.withDefaults(),
		async:  (sfd.Flags()|dfd.Flags())&kernel.FAsync != 0,
		caller: p,
	}
	d.onWriteDone, d.onRetry = d.writeDone, d.retry

	srcFile, srcIsFile := sfd.Ops().(FileLike)
	dstFile, dstIsFile := dfd.Ops().(FileLike)
	src, srcIsSource := sfd.Ops().(Source)
	dst, dstIsSink := dfd.Ops().(Sink)

	// The pairing table (§5.1): which read side feeds which write side,
	// what the pairing requires of its arguments, and which descriptors'
	// offsets the transfer consumes. A file is read a block at a time
	// from any byte offset; writing one needs a block-aligned offset and
	// a size known up front (§5.2 sizes the destination mapping from the
	// source gnode, and an unbounded network source has no size to
	// take); aliasing needs both files block aligned in one buffer cache.
	switch {
	case srcIsFile && dstIsFile:
		if dstFile.BufCache() != srcFile.BufCache() || !blockAligned(srcFile, sfd) || !blockAligned(dstFile, dfd) {
			return 0, nil, kernel.ErrInval
		}
		w := &alias{fileOut: newFileOut(d, dstFile, dfd)}
		d.rd, d.wr, d.files = newBlocks(d, srcFile, sfd, w), w, []*kernel.FDesc{sfd, dfd}
		d.label = "file-file"
	case srcIsFile && dstIsSink:
		w := &sink{d: d, dst: dst, cache: srcFile.BufCache()}
		d.rd, d.wr, d.files = newBlocks(d, srcFile, sfd, w), w, []*kernel.FDesc{sfd}
		d.label = "file-sink"
	case srcIsSource && dstIsSink:
		w := &sink{d: d, dst: dst}
		d.rd, d.wr = &source{d: d, src: src, wr: w, chunk: sourceChunk}, w
		d.label = "source-sink"
	case srcIsSource && dstIsFile:
		if size == EOF || !blockAligned(dstFile, dfd) {
			return 0, nil, kernel.ErrInval
		}
		w := &stage{fileOut: newFileOut(d, dstFile, dfd)}
		d.rd, d.wr, d.files = &source{d: d, src: src, wr: w, chunk: int(w.bsize)}, w, []*kernel.FDesc{dfd}
		d.label = "source-file"
	default:
		return 0, nil, kernel.ErrOpNotSupp
	}
	if err := d.setup(p, size); err != nil {
		return 0, nil, err
	}
	h := &Handle{d: d}
	if !d.async {
		n, err := d.wait(p)
		return n, h, err
	}
	// The caller continues in user mode; the transfer proceeds on device
	// interrupts and the callout list. The scheduled size is returned
	// when known; an until-EOF transfer from a sizeless source reports
	// zero (poll the Handle or wait for SIGIO).
	switch {
	case d.done: // zero bytes, or finished while being primed
		return d.moved, h, d.err
	case d.total == EOF:
		return 0, h, nil
	}
	return d.total, h, nil
}

// blockAligned reports whether fd's offset sits on a block boundary of
// the file open on it.
func blockAligned(f FileLike, fd *kernel.FDesc) bool {
	return fd.Offset()%int64(f.BufCache().BlockSize()) == 0
}

// wait blocks a synchronous caller until the splice drains — which a
// zero-length transfer, or one primed against a synchronous device, has
// already done. A signal interrupts the splice: new reads stop,
// in-flight I/O drains, and the call returns the partial count with
// ErrIntr, matching "until ... the operation is interrupted by the
// caller".
func (d *desc) wait(p *kernel.Proc) (int64, error) {
	interrupted := false
	for !d.done {
		pri := kernel.PSLEP
		if interrupted {
			// Already interrupted: drain uninterruptibly, otherwise
			// the still-pending signal would spin the sleep forever.
			pri = kernel.PRIBIO
		}
		if err := p.Sleep(d, pri); err == kernel.ErrIntr && !interrupted {
			interrupted = true
			d.stop()
		}
	}
	d.advance(d.moved)
	if d.err == nil && interrupted {
		return d.moved, kernel.ErrIntr
	}
	return d.moved, d.err
}

// Handle observes a splice in flight (useful mainly for FASYNC
// transfers and tests; the paper's interface is SIGIO).
type Handle struct{ d *desc }

// Done reports whether the transfer has completed.
func (h *Handle) Done() bool { return h.d.done }

// Err returns the transfer error, if any (valid once Done).
func (h *Handle) Err() error { return h.d.err }

// Moved returns the number of bytes moved so far.
func (h *Handle) Moved() int64 { return h.d.moved }

// Stats returns the transfer's activity counters.
func (h *Handle) Stats() Stats { return h.d.stats }

// Wait blocks p until the transfer completes, delivering any signals
// that arrive in the meantime (including this transfer's own SIGIO).
func (h *Handle) Wait(p *kernel.Proc) error {
	for !h.d.done {
		if err := p.Sleep(h.d, kernel.PSLEP); err == kernel.ErrIntr {
			p.DeliverSignals()
		}
	}
	p.DeliverSignals()
	return h.d.err
}
