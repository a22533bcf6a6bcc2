package dev

import (
	"bytes"
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
	p.SpliceRead(4096, func(data []byte, eof bool, err error) {
		delivered = append([]byte(nil), data...)
	})
	doneCalled := false
	k.Spawn("idle", func(pr *kernel.Proc) { pr.SleepFor(50 * sim.Millisecond) })
	k.Engine().Schedule(sim.Millisecond, "w", func() {
		p.SpliceWrite([]byte("abc"), func(err error) { doneCalled = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !doneCalled || string(delivered) != "abc" {
		t.Fatalf("done=%v delivered=%q", doneCalled, delivered)
	}
}
