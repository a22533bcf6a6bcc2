package dev

import (
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// FBParams configures a frame-capturing framebuffer.
type FBParams struct {
	// Path is the device special file (e.g. "/dev/fb0").
	Path string
	// FrameBytes is the size of one captured frame.
	FrameBytes int
	// FPS is the capture rate in frames per second.
	FPS float64
	// Frames bounds the capture; 0 means unbounded (no EOF).
	Frames int
	// BufFrames is how many captured frames the device buffers before
	// dropping the oldest (a real capture device overwrites).
	BufFrames int
}

// Framebuffer is a frame source: it "captures" a synthetic frame every
// 1/FPS seconds, which readers and splice sources consume. It supports
// the paper's framebuffer-to-socket splice (§5.1) for sending graphical
// images and video.
type Framebuffer struct {
	k *kernel.Kernel
	p FBParams

	frames   [][]byte
	captured int
	dropped  int64
	eof      bool
	running  bool

	rd kernel.ParkedRead
}

// NewFramebuffer creates the device, registers its special file, and
// starts capturing when the clock runs.
func NewFramebuffer(k *kernel.Kernel, p FBParams) *Framebuffer {
	if p.FrameBytes <= 0 || p.FPS <= 0 {
		panic("dev: framebuffer needs FrameBytes and FPS")
	}
	if p.BufFrames <= 0 {
		p.BufFrames = 8
	}
	fb := &Framebuffer{k: k, p: p}
	k.RegisterDev(p.Path, func(ctx kernel.Ctx) (kernel.FileOps, error) {
		return fb, nil
	})
	// Capture runs on engine events without holding the kernel alive:
	// the machine may exit with capture still scheduled, as a real
	// display keeps refreshing regardless of processes.
	fb.running = true
	k.Engine().Schedule(fb.framePeriod(), "fbcap", fb.captureFrame)
	return fb
}

func (fb *Framebuffer) framePeriod() sim.Duration {
	return sim.Duration(float64(sim.Second) / fb.p.FPS)
}

// Dropped reports frames overwritten before anyone consumed them.
func (fb *Framebuffer) Dropped() int64 { return fb.dropped }

// CapturedFrames reports how many frames have been captured.
func (fb *Framebuffer) CapturedFrames() int { return fb.captured }

// captureFrame synthesizes the next frame at interrupt level.
func (fb *Framebuffer) captureFrame() {
	if fb.eof || (fb.p.Frames > 0 && fb.captured >= fb.p.Frames) {
		fb.eof = true
		fb.running = false
		fb.k.Interrupt(fb.serveWaiters)
		return
	}
	frame := make([]byte, fb.p.FrameBytes)
	seq := byte(fb.captured)
	for i := range frame {
		frame[i] = seq ^ byte(i*13)
	}
	fb.captured++
	if len(fb.frames) >= fb.p.BufFrames {
		fb.frames = fb.frames[1:]
		fb.dropped++
	}
	fb.frames = append(fb.frames, frame)
	fb.k.Interrupt(fb.serveWaiters)
	fb.k.Engine().Schedule(fb.framePeriod(), "fbcap", fb.captureFrame)
}

// readable reports that a read would not block: a frame or EOF.
func (fb *Framebuffer) readable() bool { return len(fb.frames) > 0 || fb.eof }

// serveWaiters hands data to a pending splice read and wakes blocked
// readers.
func (fb *Framebuffer) serveWaiters() {
	fb.rd.Serve(fb.readable(), fb.takeFrame)
	fb.k.Wakeup(fb)
}

// takeFrame removes up to max bytes of the oldest frame.
func (fb *Framebuffer) takeFrame(max int) (data []byte, eof bool) {
	if len(fb.frames) == 0 {
		return nil, fb.eof
	}
	f := fb.frames[0]
	if max >= len(f) {
		fb.frames = fb.frames[1:]
	} else {
		fb.frames[0] = f[max:]
		f = f[:max]
	}
	return f, fb.eof && len(fb.frames) == 0
}

// Read implements kernel.FileOps: blocks until a frame (or EOF).
func (fb *Framebuffer) Read(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	if err := kernel.SleepUntil(ctx, fb, kernel.PSOCK+1, fb.readable); err != nil || len(fb.frames) == 0 {
		return 0, err // refused or interrupted, else EOF
	}
	data, _ := fb.takeFrame(len(p))
	copy(p, data)
	return len(data), nil
}

// Write implements kernel.FileOps: capture-only device.
func (fb *Framebuffer) Write(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

// Close implements kernel.FileOps. The capture engine keeps running
// (screen refresh does not stop because a reader closed).
func (fb *Framebuffer) Close(ctx kernel.Ctx) error { return nil }

// SpliceRead implements the splice Source interface: deliver the oldest
// captured frame, or park the request until one arrives.
func (fb *Framebuffer) SpliceRead(max int, deliver func([]byte, bool, error)) {
	fb.rd.Read(max, deliver, fb.readable(), fb.takeFrame)
}

// CancelSpliceRead implements the splice Source interface.
func (fb *Framebuffer) CancelSpliceRead() bool { return fb.rd.Cancel() }
