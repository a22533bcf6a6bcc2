package dev

import (
	"kdp/internal/kernel"
)

// Pipe is an in-kernel bounded byte queue usable as both a splice sink
// and a splice source, so two splices can be chained through it
// (file → pipe → socket, etc.) with kernel-level backpressure at each
// stage. The paper positions splice as the reverse of the 8th-edition
// streams pipe — cross-connecting devices instead of processes — and a
// pipe object closes the loop: spliced pathways become composable.
//
// It also implements kernel.FileOps, so ordinary read/write processes
// can sit on either end.
type Pipe struct {
	k *kernel.Kernel

	// q's FIFO is the pipe: writers are admitted into it, readers take
	// from its front.
	q      kernel.WriteQueue
	rd     kernel.ParkedRead
	closed bool

	pollQ kernel.PollQueue

	out int64
}

// NewPipe creates a pipe with the given buffer capacity (default 64KB)
// and optionally registers it at path.
func NewPipe(k *kernel.Kernel, path string, capacity int) *Pipe {
	if capacity <= 0 {
		capacity = 64 << 10
	}
	p := &Pipe{k: k, q: kernel.WriteQueue{Cap: capacity}}
	if path != "" {
		k.RegisterDev(path, func(ctx kernel.Ctx) (kernel.FileOps, error) {
			return p, nil
		})
	}
	return p
}

// Buffered reports the bytes currently queued.
func (pp *Pipe) Buffered() int { return pp.q.Len() }

// Transferred returns total bytes in and out: every byte admitted has
// either been taken or is still buffered.
func (pp *Pipe) Transferred() (in, out int64) { return pp.out + int64(pp.q.Len()), pp.out }

// CloseWrite marks end-of-stream: readers drain the remaining bytes and
// then see EOF. Writers still queued behind a full buffer fail — nothing
// is promised to make room for them any more, and a process blocked in
// Write must not sleep forever because the far end went away.
func (pp *Pipe) CloseWrite() {
	pp.closed = true
	pp.serveReader()
	pp.q.Abort(kernel.ErrBadFD)
	pp.wake(kernel.PollIn | kernel.PollHup)
}

// wake rouses blocked readers/writers and the pollers whose interest
// intersects events.
func (pp *Pipe) wake(events int) {
	pp.k.Wakeup(pp)
	pp.pollQ.Notify(events)
}

// readable reports that a read would not block: bytes or EOF.
func (pp *Pipe) readable() bool { return pp.q.Len() > 0 || pp.closed }

// serveReader admits what fits and hands buffered data to a waiting
// splice read.
func (pp *Pipe) serveReader() {
	pp.q.Admit()
	if pp.rd.Serve(pp.readable(), pp.take) {
		pp.drained()
	}
}

// drained follows every take: the space it opened may admit queued
// writers, which may in turn satisfy a newly armed reader.
func (pp *Pipe) drained() {
	pp.q.Admit()
	pp.wake(kernel.PollIn | kernel.PollOut)
}

// take removes up to max buffered bytes as a slice of their own: a
// splice read's deliver owns what it is handed.
func (pp *Pipe) take(max int) (data []byte, eof bool) {
	if n := min(pp.q.Len(), max); n > 0 {
		data = make([]byte, n)
		pp.consume(data)
	}
	return data, pp.closed && pp.q.Len() == 0
}

// consume moves the oldest bytes of the pipe into dst and returns how
// many that was.
func (pp *Pipe) consume(dst []byte) int {
	n := pp.q.CopyOut(dst, 0)
	pp.q.Drop(n)
	pp.out += int64(n)
	return n
}

// ---- kernel.FileOps ----

// Read implements kernel.FileOps: blocks until data or EOF.
func (pp *Pipe) Read(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	if err := kernel.SleepUntil(ctx, pp, kernel.PSOCK+1, pp.readable); err != nil || pp.q.Len() == 0 {
		return 0, err // refused or interrupted, else EOF
	}
	n := pp.consume(b)
	pp.drained()
	return n, nil
}

// Write implements kernel.FileOps: blocks until all bytes are admitted.
// A nonblocking write admits what fits right now — ErrWouldBlock only
// when not a single byte can be taken.
func (pp *Pipe) Write(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	if pp.closed {
		return 0, kernel.ErrBadFD
	}
	if !ctx.CanSleep() {
		n, err := pp.q.TryWrite(b)
		if err == nil {
			pp.serveReader()
			pp.wake(kernel.PollIn)
		}
		return n, err
	}
	return kernel.AwaitWrite(ctx, b, pp.SpliceWrite)
}

// Close implements kernel.FileOps: closing the descriptor ends the
// write side.
func (pp *Pipe) Close(ctx kernel.Ctx) error {
	pp.CloseWrite()
	return nil
}

// ---- kernel.PollOps ----

// PollReady implements kernel.PollOps: readable when bytes (or EOF) are
// buffered; writable when buffer space exists and no earlier writer is
// queued ahead.
func (pp *Pipe) PollReady(events int) int {
	r := 0
	if events&kernel.PollIn != 0 && pp.readable() {
		r |= kernel.PollIn
	}
	if events&kernel.PollOut != 0 && !pp.closed && pp.q.Writable() {
		r |= kernel.PollOut
	}
	if pp.closed {
		r |= kernel.PollHup
	}
	return r
}

// PollQueue implements kernel.PollOps.
func (pp *Pipe) PollQueue() *kernel.PollQueue { return &pp.pollQ }

// ---- splice endpoints ----

// SpliceWrite implements the splice Sink interface: done fires once the
// whole chunk has been admitted to the pipe buffer (backpressure). data
// is borrowed until then.
func (pp *Pipe) SpliceWrite(data []byte, done func(error)) {
	if pp.closed {
		done(kernel.ErrBadFD)
		return
	}
	pp.q.Queue(data, done)
	pp.serveReader()
	pp.wake(kernel.PollIn)
}

// SpliceRead implements the splice Source interface.
func (pp *Pipe) SpliceRead(max int, deliver func([]byte, bool, error)) {
	pp.q.Admit()
	if pp.rd.Read(max, deliver, pp.readable(), pp.take) {
		pp.drained()
	}
}

// CancelSpliceRead implements the splice Source interface.
func (pp *Pipe) CancelSpliceRead() bool { return pp.rd.Cancel() }
