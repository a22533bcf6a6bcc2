// Package dev provides the character special devices the paper's
// applications splice to and from: rate-paced output DACs (the audio
// and video converters of the §4 movie-player example), a framebuffer
// that captures frames at a fixed rate (the framebuffer-to-socket
// splice of §5.1), and a null device.
//
// Each device implements kernel.FileOps (so it can be opened and used
// with read/write) and, where it makes sense, the splice Sink or Source
// interface — satisfied structurally, so this package does not import
// internal/splice.
package dev

import (
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// Null is the classic bit bucket: reads return EOF, writes (and splice
// writes) succeed instantly.
type Null struct {
	k       *kernel.Kernel
	written int64
}

// NewNull creates a null device and registers it at /dev/null.
func NewNull(k *kernel.Kernel) *Null {
	n := &Null{k: k}
	k.RegisterDev("/dev/null", func(ctx kernel.Ctx) (kernel.FileOps, error) {
		return n, nil
	})
	return n
}

// BytesWritten reports the total bytes discarded.
func (n *Null) BytesWritten() int64 { return n.written }

// Read implements kernel.FileOps: always EOF.
func (n *Null) Read(ctx kernel.Ctx, p []byte, off int64) (int, error) { return 0, nil }

// Write implements kernel.FileOps: discards.
func (n *Null) Write(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	n.written += int64(len(p))
	return len(p), nil
}

// Close implements kernel.FileOps.
func (n *Null) Close(ctx kernel.Ctx) error { return nil }

// SpliceWrite implements the splice Sink interface: data is consumed
// immediately.
func (n *Null) SpliceWrite(data []byte, done func(error)) {
	n.written += int64(len(data))
	done(nil)
}

// DACParams configures a rate-paced output converter.
type DACParams struct {
	// Path is the device special file name (e.g. "/dev/speaker").
	Path string
	// Rate is the playback consumption rate in bytes per second: a
	// Sun-style 8kHz u-law audio DAC consumes 8000 B/s; a video DAC
	// consumes frames at its maximum display rate.
	Rate float64
	// BufBytes is the device's staging buffer. Writers sleep when it
	// is full (splice writers are throttled by the done callback
	// instead, which is exactly the descriptor's flow control).
	BufBytes int
	// Capture keeps everything played for inspection by tests and
	// examples.
	Capture bool
}

// dacEntry is one queued chunk and its completion callback.
type dacEntry struct {
	n    int
	data []byte
	done func(error)
}

// DAC is a rate-paced output character device: bytes written to it
// drain at the configured playback rate, emulating the audio/video
// D-to-A converters of the paper's example. "The program assumes the
// audio DAC driver converts and delivers audio at the appropriate
// playback rate" (§4).
type DAC struct {
	k        *kernel.Kernel
	p        DACParams
	queued   int
	queue    []dacEntry
	draining bool
	closed   bool

	played    int64
	captured  []byte
	lastDrain sim.Time
	underruns int64
}

var _ kernel.SyncOps = (*DAC)(nil)

// NewDAC creates the device and registers its special file.
func NewDAC(k *kernel.Kernel, p DACParams) *DAC {
	if p.Rate <= 0 {
		panic("dev: DAC needs a positive rate")
	}
	if p.BufBytes <= 0 {
		p.BufBytes = 64 << 10
	}
	d := &DAC{k: k, p: p}
	k.RegisterDev(p.Path, func(ctx kernel.Ctx) (kernel.FileOps, error) {
		d.closed = false // a close ended its descriptor's use, not the device's
		return d, nil
	})
	return d
}

// Played reports the total bytes converted so far.
func (d *DAC) Played() int64 { return d.played }

// Captured returns the played bytes (only if Capture was set).
func (d *DAC) Captured() []byte { return d.captured }

// Underruns counts drain gaps: times the device went idle with a
// consumer expecting continuous output.
func (d *DAC) Underruns() int64 { return d.underruns }

// QueuedBytes reports bytes sitting in the device buffer.
func (d *DAC) QueuedBytes() int { return d.queued }

// enqueue admits a chunk and starts the drain engine.
func (d *DAC) enqueue(data []byte, capture bool, done func(error)) {
	e := dacEntry{n: len(data), done: done}
	if capture && d.p.Capture {
		e.data = append([]byte(nil), data...)
	}
	d.queued += e.n
	d.queue = append(d.queue, e)
	if !d.draining {
		d.draining = true
		d.k.Hold()
		if d.lastDrain != 0 && d.k.Now() > d.lastDrain {
			d.underruns++
		}
		d.drainNext()
	}
}

// drainNext consumes the head entry at the playback rate, then fires
// its completion at interrupt level.
func (d *DAC) drainNext() {
	if len(d.queue) == 0 {
		d.draining = false
		d.lastDrain = d.k.Now()
		d.k.Release()
		return
	}
	e := d.queue[0]
	d.queue = d.queue[1:]
	d.k.Engine().Schedule(sim.BytesAt(int64(e.n), d.p.Rate), "dac:"+d.p.Path, func() {
		d.queued -= e.n
		d.played += int64(e.n)
		if e.data != nil {
			d.captured = append(d.captured, e.data...)
		}
		d.k.Interrupt(func() {
			if e.done != nil {
				e.done(nil)
			}
			d.k.Wakeup(d) // writers waiting for buffer space
		})
		d.drainNext()
	})
}

// Read implements kernel.FileOps: output-only device.
func (d *DAC) Read(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

// Write implements kernel.FileOps: data is staged in the device buffer
// (sleeping while full) and drains at the playback rate. The write
// returns once the data is accepted, like a real audio device.
func (d *DAC) Write(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	if d.closed {
		return 0, kernel.ErrBadFD
	}
	for d.queued+len(p) > d.p.BufBytes && d.queued > 0 {
		if !ctx.CanSleep() {
			break // interrupt-level writers ride the flow control
		}
		if err := ctx.Sleep(d, kernel.PSOCK); err != nil {
			return 0, err
		}
	}
	d.enqueue(p, true, nil)
	return len(p), nil
}

// Sync implements kernel.SyncOps: waits for the buffer to drain.
func (d *DAC) Sync(ctx kernel.Ctx) error {
	for d.queued > 0 {
		if err := ctx.Sleep(d, kernel.PSOCK); err != nil {
			return err
		}
	}
	return nil
}

// Close implements kernel.FileOps. Writes and splice writes fail from
// here until the next open.
func (d *DAC) Close(ctx kernel.Ctx) error {
	d.closed = true
	return nil
}

// SpliceWrite implements the splice Sink interface. The done callback
// fires when the chunk has been played, which throttles the splice to
// the playback rate via the descriptor's pending-write watermark.
func (d *DAC) SpliceWrite(data []byte, done func(error)) {
	if d.closed {
		done(kernel.ErrBadFD)
		return
	}
	d.enqueue(data, true, done)
}
