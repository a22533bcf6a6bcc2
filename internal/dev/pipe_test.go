package dev

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

func TestPipeReadWriteRoundTrip(t *testing.T) {
	k := newK()
	p := NewPipe(k, "/dev/pipe0", 4096)
	msg := []byte("through the pipe")
	var got []byte
	k.Spawn("reader", func(pr *kernel.Proc) {
		fd, err := pr.Open("/dev/pipe0", kernel.ORdOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := pr.Read(fd, buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		got = append([]byte(nil), buf[:n]...)
	})
	k.Spawn("writer", func(pw *kernel.Proc) {
		pw.SleepFor(10 * sim.Millisecond)
		fd, _ := pw.Open("/dev/pipe0", kernel.OWrOnly)
		if _, err := pw.Write(fd, msg); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if in, out := p.Transferred(); in != int64(len(msg)) || out != int64(len(msg)) {
		t.Fatalf("counters in=%d out=%d", in, out)
	}
}

func TestPipeBackpressureBlocksWriter(t *testing.T) {
	k := newK()
	NewPipe(k, "/dev/pipe1", 1000)
	var writerDone, readerStart sim.Time
	k.Spawn("writer", func(pw *kernel.Proc) {
		fd, _ := pw.Open("/dev/pipe1", kernel.OWrOnly)
		// 3KB into a 1KB pipe: must block until the reader drains.
		if _, err := pw.Write(fd, make([]byte, 3000)); err != nil {
			t.Errorf("write: %v", err)
		}
		writerDone = pw.Now()
	})
	k.Spawn("reader", func(pr *kernel.Proc) {
		pr.SleepFor(100 * sim.Millisecond)
		readerStart = pr.Now()
		fd, _ := pr.Open("/dev/pipe1", kernel.ORdOnly)
		buf := make([]byte, 500)
		total := 0
		for total < 3000 {
			n, err := pr.Read(fd, buf)
			if err != nil || n == 0 {
				break
			}
			total += n
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if writerDone < readerStart {
		t.Fatalf("writer finished at %v before reader drained (start %v)", writerDone, readerStart)
	}
}

func TestPipeCloseReleasesBlockedWriter(t *testing.T) {
	// A writer queued behind a full buffer when the far end goes away
	// must fail, not sleep forever; what was admitted stays readable.
	k := newK()
	NewPipe(k, "/dev/pipe3", 1000)
	var werr error
	k.Spawn("writer", func(pw *kernel.Proc) {
		fd, _ := pw.Open("/dev/pipe3", kernel.OWrOnly)
		_, werr = pw.Write(fd, make([]byte, 3000))
	})
	k.Spawn("reader", func(pr *kernel.Proc) {
		pr.SleepFor(100 * sim.Millisecond)
		fd, _ := pr.Open("/dev/pipe3", kernel.ORdOnly)
		_ = pr.Close(fd) // gives up without draining
		fd, _ = pr.Open("/dev/pipe3", kernel.ORdOnly)
		buf := make([]byte, 2000)
		if n, err := pr.Read(fd, buf); n != 1000 || err != nil {
			t.Errorf("read after close = (%d, %v), want the 1000 admitted bytes", n, err)
		}
		if n, err := pr.Read(fd, buf); n != 0 || err != nil {
			t.Errorf("second read = (%d, %v), want EOF", n, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("a blocked writer outlived the pipe: %v", err)
	}
	if werr != kernel.ErrBadFD {
		t.Errorf("blocked write returned %v, want ErrBadFD", werr)
	}
}

func TestPipeEOFAfterCloseWrite(t *testing.T) {
	k := newK()
	p := NewPipe(k, "/dev/pipe2", 4096)
	sawEOF := false
	k.Spawn("reader", func(pr *kernel.Proc) {
		fd, _ := pr.Open("/dev/pipe2", kernel.ORdOnly)
		buf := make([]byte, 64)
		for {
			n, err := pr.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				sawEOF = true
				return
			}
		}
	})
	k.Spawn("writer", func(pw *kernel.Proc) {
		fd, _ := pw.Open("/dev/pipe2", kernel.OWrOnly)
		_, _ = pw.Write(fd, []byte("tail"))
		_ = pw.Close(fd)
		_ = p
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawEOF {
		t.Fatal("reader never saw EOF")
	}
}

func TestPipeSpliceEndpointsDirect(t *testing.T) {
	// Drive the splice-facing interfaces directly: SpliceWrite admits
	// with backpressure; SpliceRead delivers on arrival.
	k := newK()
	p := NewPipe(k, "", 1024)
	var delivered []byte
	p.SpliceRead(4096, func(data []byte, blk *sim.Block, eof bool, err error) {
		delivered = append([]byte(nil), data...)
		k.Spares().Drop(blk)
	})
	doneCalled := false
	k.Spawn("idle", func(pr *kernel.Proc) { pr.SleepFor(50 * sim.Millisecond) })
	k.Engine().Schedule(sim.Millisecond, "w", func() {
		p.SpliceWrite([]byte("abc"), nil, func(err error) { doneCalled = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !doneCalled || string(delivered) != "abc" {
		t.Fatalf("done=%v delivered=%q", doneCalled, delivered)
	}
}

// TestPipeNonblockingAndSpliceWiring walks the pipe's use of the shared
// endpoint types from a context that cannot sleep: the nonblocking
// write arm, readiness as poll reports it, the one-read-at-a-time rule,
// cancellation, and what closing does to a writer queued behind a full
// buffer.
func TestPipeNonblockingAndSpliceWiring(t *testing.T) {
	k := newK()
	p := NewPipe(k, "", 8)
	nb := k.IntrCtx()
	const inOut = kernel.PollIn | kernel.PollOut
	var log []string
	deliver := func(tag string) kernel.Deliver {
		return func(data []byte, blk *sim.Block, eof bool, err error) {
			log = append(log, fmt.Sprintf("%s:%q eof=%v err=%v", tag, data, eof, err))
			k.Spares().Drop(blk)
		}
	}
	done := func(tag string) func(error) {
		return func(err error) { log = append(log, fmt.Sprintf("%s:%v", tag, err)) }
	}

	if r := p.PollReady(inOut); r != kernel.PollOut {
		t.Errorf("empty pipe polls %#x, want PollOut", r)
	}
	if n, err := p.Read(nb, make([]byte, 4), 0); n != 0 || err != kernel.ErrWouldBlock {
		t.Errorf("nonblocking read of an empty pipe = (%d, %v)", n, err)
	}
	if n, err := p.Write(nb, []byte("0123456789"), 0); n != 8 || err != nil {
		t.Errorf("nonblocking write into 8 bytes of room = (%d, %v), want the 8 that fit", n, err)
	}
	if n, err := p.Write(nb, []byte("x"), 0); n != 0 || err != kernel.ErrWouldBlock {
		t.Errorf("nonblocking write into a full pipe = (%d, %v)", n, err)
	}
	if r := p.PollReady(inOut); r != kernel.PollIn {
		t.Errorf("full pipe polls %#x, want PollIn", r)
	}
	buf := make([]byte, 5)
	if n, err := p.Read(nb, buf, 0); n != 5 || err != nil || string(buf) != "01234" {
		t.Errorf("nonblocking read = (%d, %v) %q", n, err, buf)
	}

	p.SpliceRead(16, deliver("a")) // data waiting: delivered at once
	p.SpliceRead(16, deliver("b")) // parks
	p.SpliceRead(16, deliver("c")) // refused; b stays parked
	if !p.CancelSpliceRead() || p.CancelSpliceRead() {
		t.Error("CancelSpliceRead did not withdraw the parked read exactly once")
	}
	p.SpliceWrite([]byte("late"), nil, done("w1")) // b is gone: the bytes stay buffered
	if p.Buffered() != 4 {
		t.Errorf("buffered %d after a cancelled read, want 4", p.Buffered())
	}
	p.SpliceWrite([]byte("0123456789"), nil, done("w2")) // 4 fit, 6 wait
	if r := p.PollReady(inOut); r != kernel.PollIn {
		t.Errorf("pipe with a queued writer polls %#x, want PollIn only", r)
	}
	if _, err := p.Write(nb, []byte("x"), 0); err != kernel.ErrWouldBlock {
		t.Errorf("nonblocking write behind a queued writer: %v", err)
	}
	p.CloseWrite()
	if r := p.PollReady(inOut); r != kernel.PollIn|kernel.PollHup {
		t.Errorf("closed pipe polls %#x, want PollIn|PollHup", r)
	}
	if _, err := p.Write(nb, []byte("x"), 0); err != kernel.ErrBadFD {
		t.Errorf("write to a closed pipe: %v", err)
	}
	p.SpliceRead(16, deliver("d"))

	want := []string{
		`a:"567" eof=false err=<nil>`,
		`c:"" eof=false err=operation would block`,
		`w1:<nil>`,
		`w2:bad file descriptor`,
		`d:"late0123" eof=true err=<nil>`,
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("completions:\n got %q\nwant %q", log, want)
	}
	if in, out := p.Transferred(); in != 16 || out != 16 {
		t.Errorf("transferred in=%d out=%d, want 16 16", in, out)
	}
}

// TestFramebufferSpliceSource drives the framebuffer as a splice source:
// a read before the first frame parks (a second is refused, a cancelled
// one never runs), each capture interrupt serves the parked read, a
// short read splits a frame, and the bounded capture ends in EOF.
func TestFramebufferSpliceSource(t *testing.T) {
	k := newK()
	fb := NewFramebuffer(k, FBParams{Path: "/dev/fb3", FrameBytes: 64, FPS: 10, Frames: 2})
	var log []string
	var read func(tag string, max int)
	read = func(tag string, max int) {
		fb.SpliceRead(max, func(data []byte, _ *sim.Block, eof bool, err error) {
			log = append(log, fmt.Sprintf("%s:%d eof=%v err=%v in frame period %d",
				tag, len(data), eof, err, k.Now()/sim.Time(100*sim.Millisecond)))
			if tag == "c" && !eof && err == nil {
				read("c", 64) // the splice engine re-arms from its read handler
			}
		})
	}
	read("a", 64)
	read("b", 64)
	if !fb.CancelSpliceRead() || fb.CancelSpliceRead() {
		t.Error("CancelSpliceRead did not withdraw the parked read exactly once")
	}
	read("c", 40)
	k.Spawn("idle", func(p *kernel.Proc) { p.SleepFor(sim.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"b:0 eof=false err=operation would block in frame period 0",
		"c:40 eof=false err=<nil> in frame period 1",
		"c:24 eof=false err=<nil> in frame period 1",
		"c:64 eof=false err=<nil> in frame period 2",
		"c:0 eof=true err=<nil> in frame period 3",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deliveries:\n got %q\nwant %q", log, want)
	}
}
