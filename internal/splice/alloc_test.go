package splice

import (
	"bytes"
	"runtime"
	"testing"

	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/socket"
	"kdp/internal/stream"
)

// midTransferAllocs starts an asynchronous splice of total bytes from src
// to dst and counts what the runtime allocates while the middle half of
// the transfer moves: by then the descriptor's records, the cache's
// empty headers and the kernel's callouts and events are all in
// circulation, and the caller does nothing but sleep a tick at a time.
func midTransferAllocs(t *testing.T, p *kernel.Proc, src, dst int, total int64) (objects uint64, blocks int64) {
	t.Helper()
	if _, err := p.Fcntl(src, kernel.FSetFL, kernel.FAsync); err != nil {
		t.Fatalf("fcntl: %v", err)
	}
	p.SetSignalHandler(kernel.SIGIO, nil)
	_, h, err := SpliceOpts(p, src, dst, total, Options{})
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	tick := p.Kernel().Config().TickDuration()
	waitFor := func(moved int64) int64 {
		for h.Moved() < moved && !h.Done() {
			p.SleepFor(tick)
		}
		return h.Moved()
	}
	var before, after runtime.MemStats
	from := waitFor(total / 4)
	runtime.ReadMemStats(&before)
	to := waitFor(3 * total / 4)
	runtime.ReadMemStats(&after)
	if h.Done() {
		t.Fatal("the transfer finished inside the measured window")
	}
	if err := h.Wait(p); err != nil {
		t.Fatalf("splice: %v", err)
	}
	return after.Mallocs - before.Mallocs, (to - from) / bsize
}

// TestSplicedBlockAllocatesNothing: in the steady state of a file-to-file
// splice a block costs a read, a callout, a write through a header off
// the empty list, and their completion events — and no allocation — on
// the RAM disk, where every request completes inline, and on the RZ58,
// where each is queued, serviced and completed by an interrupt.
func TestSplicedBlockAllocatesNothing(t *testing.T) {
	for _, dev := range []struct {
		name   string
		params func(int64, int) disk.Params
	}{{"RAM", disk.RAMDisk}, {"RZ58", disk.RZ58}} {
		t.Run(dev.name, func(t *testing.T) {
			m := newMachine(t, dev.params)
			const size = 256 * bsize
			m.run(t, func(p *kernel.Proc) {
				want := makeFile(t, p, "/d0/src", size, 9)
				src, _ := p.Open("/d0/src", kernel.ORdOnly)
				dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
				objects, blocks := midTransferAllocs(t, p, src, dst, size)
				// The count is the whole runtime's: a stray object or two
				// from the test binary's background is not one per block.
				if blocks < 64 || objects > uint64(blocks)/16 {
					t.Errorf("%d objects allocated while %d blocks moved, want none per block over at least 64", objects, blocks)
				}
				_ = p.Close(src)
				_ = p.Close(dst)
				if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
					t.Error("spliced data mismatch")
				}
			})
		})
	}
}

// warmChunkAllocs starts an asynchronous splice from the source open on
// src into /dev/null, then counts with testing.AllocsPerRun what one
// chunk costs once the splice is warm: feed writes 8 KB into the source
// from process context, and the caller sleeps a tick at a time until
// the null device has all of it. The source hands each chunk over by
// reference, a span of its own queue or a copy in one of the machine's
// spare blocks, and the splice drops it when the null device is done.
func warmChunkAllocs(t *testing.T, p *kernel.Proc, null *dev.Null, src int, feed func([]byte)) float64 {
	t.Helper()
	sink, _ := p.Open("/dev/null", kernel.OWrOnly)
	if _, err := p.Fcntl(src, kernel.FSetFL, kernel.FAsync); err != nil {
		t.Fatalf("fcntl: %v", err)
	}
	p.SetSignalHandler(kernel.SIGIO, nil)
	_, h, err := SpliceOpts(p, src, sink, EOF, Options{})
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	chunk := bytes.Repeat([]byte{0x5A}, bsize)
	tick := p.Kernel().Config().TickDuration()
	allocs := testing.AllocsPerRun(50, func() {
		want := null.BytesWritten() + bsize
		feed(chunk)
		for null.BytesWritten() < want && !h.Done() {
			p.SleepFor(tick)
		}
	})
	if h.Done() {
		t.Fatalf("the splice ended early: %v", h.Err())
	}
	_ = p.Close(sink)
	return allocs
}

// TestWarmSpliceFromPipeAllocatesNothing: a warm splice from a pipe
// into /dev/null takes each chunk from the pipe as a span of the pipe's
// own block, by reference, and allocates nothing per chunk.
func TestWarmSpliceFromPipeAllocatesNothing(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	pipe := dev.NewPipe(m.k, "/dev/pipe", 4*bsize)
	null := dev.NewNull(m.k)
	m.run(t, func(p *kernel.Proc) {
		pin, _ := p.Open("/dev/pipe", kernel.OWrOnly)
		pout, _ := p.Open("/dev/pipe", kernel.ORdOnly)
		allocs := warmChunkAllocs(t, p, null, pout, func(b []byte) {
			if _, err := p.Write(pin, b); err != nil {
				t.Fatalf("pipe write: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("a warm 8 KB chunk spliced from a pipe allocates %.1f objects, want 0", allocs)
		}
		pipe.CloseWrite()
		_ = p.Close(pout)
		_ = p.Close(pin)
	})
}

// TestWarmSpliceFromConnAllocatesNothing: a warm splice from a stream
// connection into /dev/null takes each chunk from the receive buffer by
// reference — a span of a received segment's block, or the segments a
// chunk spans copied into one spare block — and allocates nothing per
// chunk, the client's writes, segments and acknowledgements included.
func TestWarmSpliceFromConnAllocatesNothing(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	null := dev.NewNull(m.k)
	n := socket.NewNet(m.k, socket.Loopback())
	srv, _ := stream.NewTransport(m.k, n, 80)
	cli, _ := stream.NewTransport(m.k, n, 5001)
	var conn *stream.Conn // the client's end
	m.k.Spawn("client", func(p *kernel.Proc) {
		fd, c, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		conn = c
		m.k.Wakeup(&conn)
		for conn != nil {
			_ = p.Sleep(&conn, kernel.PWAIT)
		}
		_ = p.Close(fd)
	})
	m.run(t, func(p *kernel.Proc) {
		_ = srv.Listen(p)
		afd, _, err := srv.Accept(p)
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		for conn == nil {
			_ = p.Sleep(&conn, kernel.PWAIT)
		}
		allocs := warmChunkAllocs(t, p, null, afd, func(b []byte) {
			if _, err := conn.Write(p.Ctx(), b, 0); err != nil {
				t.Fatalf("conn write: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("a warm 8 KB chunk spliced from a stream connection allocates %.1f objects, want 0", allocs)
		}
		conn = nil
		m.k.Wakeup(&conn)
		_ = p.Close(afd)
	})
}
