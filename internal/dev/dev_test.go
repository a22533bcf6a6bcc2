package dev

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

func newK() *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 600 * sim.Second
	return kernel.New(cfg)
}

func TestNullDevice(t *testing.T) {
	k := newK()
	n := NewNull(k)
	k.Spawn("test", func(p *kernel.Proc) {
		fd, err := p.Open("/dev/null", kernel.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if w, err := p.Write(fd, make([]byte, 1000)); w != 1000 || err != nil {
			t.Errorf("write: %d %v", w, err)
		}
		if r, err := p.Read(fd, make([]byte, 10)); r != 0 || err != nil {
			t.Errorf("read: %d %v (want EOF)", r, err)
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.BytesWritten() != 1000 {
		t.Fatalf("written = %d", n.BytesWritten())
	}
}

func TestDACDrainsAtPlaybackRate(t *testing.T) {
	k := newK()
	d := NewDAC(k, DACParams{Path: "/dev/speaker", Rate: 8000, BufBytes: 64 << 10})
	var elapsed sim.Duration
	k.Spawn("player", func(p *kernel.Proc) {
		fd, _ := p.Open("/dev/speaker", kernel.OWrOnly)
		t0 := p.Now()
		// 16000 bytes at 8000 B/s must take ~2s to fully play.
		if _, err := p.Write(fd, make([]byte, 16000)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := p.Fsync(fd); err != nil { // drain
			t.Errorf("drain: %v", err)
		}
		elapsed = p.Now().Sub(t0)
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 1900*sim.Millisecond || elapsed > 2200*sim.Millisecond {
		t.Fatalf("drain took %v, want ~2s", elapsed)
	}
	if d.Played() != 16000 {
		t.Fatalf("played = %d", d.Played())
	}
}

// TestDACReopens pins that a close ends its descriptor's use of the DAC,
// not the device: a later open writes and drains again. A splice write
// after the last close still fails.
func TestDACReopens(t *testing.T) {
	k := newK()
	d := NewDAC(k, DACParams{Path: "/dev/speaker", Rate: 1e6})
	k.Spawn("player", func(p *kernel.Proc) {
		for i := 0; i < 2; i++ {
			fd, err := p.Open("/dev/speaker", kernel.OWrOnly)
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			if _, err := p.Write(fd, make([]byte, 1000)); err != nil {
				t.Errorf("open %d: write: %v", i, err)
			}
			if err := p.Fsync(fd); err != nil {
				t.Errorf("open %d: drain: %v", i, err)
			}
			if err := p.Close(fd); err != nil {
				t.Errorf("open %d: close: %v", i, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Played() != 2000 {
		t.Errorf("played %d bytes, want 2000", d.Played())
	}
	var err error
	d.SpliceWrite([]byte{1}, nil, func(e error) { err = e })
	if err != kernel.ErrBadFD {
		t.Errorf("splice write after the last close: %v, want ErrBadFD", err)
	}
}

func TestDACBackpressureBlocksWriter(t *testing.T) {
	k := newK()
	NewDAC(k, DACParams{Path: "/dev/slow", Rate: 1000, BufBytes: 2000})
	var elapsed sim.Duration
	k.Spawn("writer", func(p *kernel.Proc) {
		fd, _ := p.Open("/dev/slow", kernel.OWrOnly)
		t0 := p.Now()
		// 6KB into a 2KB buffer at 1KB/s: the writes must block until
		// space drains, so accepting everything takes ~4s.
		for i := 0; i < 6; i++ {
			if _, err := p.Write(fd, make([]byte, 1000)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		elapsed = p.Now().Sub(t0)
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 3*sim.Second {
		t.Fatalf("writer not throttled: %v", elapsed)
	}
}

func TestDACCapture(t *testing.T) {
	k := newK()
	d := NewDAC(k, DACParams{Path: "/dev/cap", Rate: 1e6, BufBytes: 64 << 10, Capture: true})
	want := []byte("digital audio samples")
	k.Spawn("w", func(p *kernel.Proc) {
		fd, _ := p.Open("/dev/cap", kernel.OWrOnly)
		_, _ = p.Write(fd, want)
		_ = p.Fsync(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(d.Captured()) != string(want) {
		t.Fatalf("captured %q", d.Captured())
	}
}

func TestDACSpliceWriteThrottledCompletion(t *testing.T) {
	k := newK()
	d := NewDAC(k, DACParams{Path: "/dev/s", Rate: 10000, BufBytes: 64 << 10})
	var doneAt sim.Time
	k.Spawn("idle", func(p *kernel.Proc) { p.SleepFor(3 * sim.Second) })
	k.Engine().Schedule(0, "kick", func() {
		d.SpliceWrite(make([]byte, 10000), nil, func(err error) {
			if err != nil {
				t.Errorf("splice write: %v", err)
			}
			doneAt = k.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 10000 bytes at 10000 B/s: completion near t=1s, not immediately.
	if doneAt < sim.Time(900*sim.Millisecond) {
		t.Fatalf("sink completion at %v, want ~1s (paced)", doneAt)
	}
}

func TestFramebufferCapturesFrames(t *testing.T) {
	k := newK()
	fb := NewFramebuffer(k, FBParams{Path: "/dev/fb0", FrameBytes: 1024, FPS: 30, Frames: 10})
	var got [][]byte
	k.Spawn("reader", func(p *kernel.Proc) {
		fd, _ := p.Open("/dev/fb0", kernel.ORdOnly)
		buf := make([]byte, 1024)
		for {
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d frames, want 10", len(got))
	}
	if fb.CapturedFrames() != 10 {
		t.Fatalf("captured %d", fb.CapturedFrames())
	}
	// Frames carry distinct sequence markers.
	if got[0][0] == got[1][0] {
		t.Fatal("frames not distinct")
	}
}

func TestFramebufferPacing(t *testing.T) {
	k := newK()
	NewFramebuffer(k, FBParams{Path: "/dev/fb1", FrameBytes: 64, FPS: 10, Frames: 5})
	var times []sim.Time
	k.Spawn("reader", func(p *kernel.Proc) {
		fd, _ := p.Open("/dev/fb1", kernel.ORdOnly)
		buf := make([]byte, 64)
		for {
			n, _ := p.Read(fd, buf)
			if n == 0 {
				break
			}
			times = append(times, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("frames = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < 90*sim.Millisecond || gap > 130*sim.Millisecond {
			t.Fatalf("frame gap %v, want ~100ms", gap)
		}
	}
}

func TestFramebufferDropsWhenUnread(t *testing.T) {
	k := newK()
	fb := NewFramebuffer(k, FBParams{Path: "/dev/fb2", FrameBytes: 64, FPS: 100, Frames: 50, BufFrames: 4})
	k.Spawn("late", func(p *kernel.Proc) {
		p.SleepFor(2 * sim.Second) // let the buffer overflow
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fb.Dropped() == 0 {
		t.Fatal("no frames dropped despite tiny buffer")
	}
}
