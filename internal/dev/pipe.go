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
	k   *kernel.Kernel
	cap int

	buf    []byte
	closed bool

	// Pending splice-side callbacks.
	writeWaiters []pipeWrite
	readWaiter   func([]byte, bool, error)
	readMax      int

	pollQ kernel.PollQueue

	in, out int64
}

type pipeWrite struct {
	data []byte
	done func(error)
}

// NewPipe creates a pipe with the given buffer capacity (default 64KB)
// and optionally registers it at path.
func NewPipe(k *kernel.Kernel, path string, capacity int) *Pipe {
	if capacity <= 0 {
		capacity = 64 << 10
	}
	p := &Pipe{k: k, cap: capacity}
	if path != "" {
		k.RegisterDev(path, func(ctx kernel.Ctx) (kernel.FileOps, error) {
			return p, nil
		})
	}
	return p
}

// Buffered reports the bytes currently queued.
func (pp *Pipe) Buffered() int { return len(pp.buf) }

// Transferred returns total bytes in and out.
func (pp *Pipe) Transferred() (in, out int64) { return pp.in, pp.out }

// CloseWrite marks end-of-stream: readers drain the remaining bytes and
// then see EOF. Writers still queued behind a full buffer fail — nothing
// is promised to make room for them any more, and a process blocked in
// Write must not sleep forever because the far end went away.
func (pp *Pipe) CloseWrite() {
	pp.closed = true
	pp.serveReader()
	stranded := pp.writeWaiters
	pp.writeWaiters = nil
	for _, w := range stranded {
		if w.done != nil {
			w.done(kernel.ErrBadFD)
		}
	}
	pp.wake(kernel.PollIn | kernel.PollHup)
}

// wake rouses blocked readers/writers and the pollers whose interest
// intersects events.
func (pp *Pipe) wake(events int) {
	pp.k.Wakeup(pp)
	pp.pollQ.Notify(events)
}

// admit moves as much pending write data as fits, completing write
// callbacks whose data has been fully admitted.
func (pp *Pipe) admit() {
	for len(pp.writeWaiters) > 0 {
		w := &pp.writeWaiters[0]
		space := pp.cap - len(pp.buf)
		if space <= 0 {
			return
		}
		n := len(w.data)
		if n > space {
			n = space
		}
		pp.buf = append(pp.buf, w.data[:n]...)
		pp.in += int64(n)
		w.data = w.data[n:]
		if len(w.data) > 0 {
			return
		}
		done := w.done
		pp.writeWaiters = pp.writeWaiters[1:]
		if done != nil {
			done(nil)
		}
	}
}

// serveReader hands buffered data to a waiting splice read.
func (pp *Pipe) serveReader() {
	pp.admit()
	if pp.readWaiter == nil {
		return
	}
	if len(pp.buf) == 0 && !pp.closed {
		return
	}
	deliver := pp.readWaiter
	pp.readWaiter = nil
	data, eof := pp.take(pp.readMax)
	deliver(data, eof, nil)
	// Taking data may have opened space for writers, which may in turn
	// satisfy a newly armed reader.
	pp.admit()
	pp.wake(kernel.PollIn | kernel.PollOut)
}

// take removes up to max buffered bytes.
func (pp *Pipe) take(max int) (data []byte, eof bool) {
	n := len(pp.buf)
	if n > max {
		n = max
	}
	if n > 0 {
		data = append([]byte(nil), pp.buf[:n]...)
		pp.buf = pp.buf[n:]
		pp.out += int64(n)
	}
	return data, pp.closed && len(pp.buf) == 0
}

// ---- kernel.FileOps ----

// Read implements kernel.FileOps: blocks until data or EOF.
func (pp *Pipe) Read(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	for len(pp.buf) == 0 {
		if pp.closed {
			return 0, nil
		}
		if !ctx.CanSleep() {
			return 0, kernel.ErrWouldBlock
		}
		if err := ctx.Sleep(pp, kernel.PSOCK+1); err != nil {
			return 0, err
		}
	}
	data, _ := pp.take(len(b))
	copy(b, data)
	pp.admit()
	pp.wake(kernel.PollIn | kernel.PollOut)
	return len(data), nil
}

// Write implements kernel.FileOps: blocks until all bytes are admitted.
// A nonblocking write admits what fits right now — ErrWouldBlock only
// when not a single byte can be taken.
func (pp *Pipe) Write(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	if pp.closed {
		return 0, kernel.ErrBadFD
	}
	if !ctx.CanSleep() {
		if len(pp.writeWaiters) > 0 {
			return 0, kernel.ErrWouldBlock
		}
		space := pp.cap - len(pp.buf)
		if space <= 0 {
			return 0, kernel.ErrWouldBlock
		}
		n := len(b)
		if n > space {
			n = space
		}
		pp.buf = append(pp.buf, b[:n]...)
		pp.in += int64(n)
		pp.serveReader()
		pp.wake(kernel.PollIn)
		return n, nil
	}
	donef := false
	var werr error
	pp.SpliceWrite(b, func(err error) {
		donef, werr = true, err
		pp.k.Wakeup(&donef)
	})
	for !donef {
		if err := ctx.Sleep(&donef, kernel.PSOCK); err != nil {
			return 0, err
		}
	}
	if werr != nil {
		return 0, werr
	}
	return len(b), nil
}

// Size implements kernel.FileOps.
func (pp *Pipe) Size(ctx kernel.Ctx) (int64, error) { return int64(len(pp.buf)), nil }

// Sync implements kernel.FileOps.
func (pp *Pipe) Sync(ctx kernel.Ctx) error { return nil }

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
	if events&kernel.PollIn != 0 && (len(pp.buf) > 0 || pp.closed) {
		r |= kernel.PollIn
	}
	if events&kernel.PollOut != 0 && !pp.closed &&
		len(pp.writeWaiters) == 0 && len(pp.buf) < pp.cap {
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
// whole chunk has been admitted to the pipe buffer (backpressure).
func (pp *Pipe) SpliceWrite(data []byte, done func(error)) {
	if pp.closed {
		done(kernel.ErrBadFD)
		return
	}
	pp.writeWaiters = append(pp.writeWaiters, pipeWrite{
		data: append([]byte(nil), data...),
		done: done,
	})
	pp.serveReader()
	if len(pp.writeWaiters) > 0 {
		pp.admit()
	}
	pp.wake(kernel.PollIn)
}

// SpliceRead implements the splice Source interface.
func (pp *Pipe) SpliceRead(max int, deliver func([]byte, bool, error)) {
	pp.admit()
	if len(pp.buf) > 0 || pp.closed {
		data, eof := pp.take(max)
		deliver(data, eof, nil)
		pp.admit()
		pp.wake(kernel.PollIn | kernel.PollOut)
		return
	}
	if pp.readWaiter != nil {
		deliver(nil, false, kernel.ErrWouldBlock)
		return
	}
	pp.readMax = max
	pp.readWaiter = deliver
}

// CancelSpliceRead withdraws a parked splice read (splice interrupt
// path).
func (pp *Pipe) CancelSpliceRead() bool {
	if pp.readWaiter == nil {
		return false
	}
	pp.readWaiter = nil
	return true
}
