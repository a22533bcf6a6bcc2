package stream

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
)

// fileMachine is a file server's machine as internal/machine builds it:
// one 16MB RAM disk behind a 400-buffer cache, mounted at /d0 by Boot.
func fileMachine() *machine.Machine {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 3600 * sim.Second
	return machine.New(machine.Spec{Kernel: cfg, CacheBufs: 400, Disks: []machine.DiskSpec{
		{Mount: "/d0", Params: disk.RAMDisk(2048, 8192), Inodes: 64},
	}})
}

// TestSpliceFileToConn is the paper's server data path: the file is
// spliced onto a stream connection with SPLICE_EOF and the client reads
// it back byte-exact — the server process never touches the data.
func TestSpliceFileToConn(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dropEvery int
	}{
		{"clean", 0},
		{"lossy", 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := fileMachine()
			k := m.K
			n := lossyNet(k, tc.dropEvery)
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)

			data := pattern(150_000, 21)
			var got []byte
			k.Spawn("server", func(p *kernel.Proc) {
				if err := m.Boot(p); err != nil {
					t.Errorf("mount: %v", err)
					return
				}
				fd, err := p.Open("/d0/file", kernel.OCreat|kernel.ORdWr)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for off := 0; off < len(data); off += 8192 {
					end := off + 8192
					if end > len(data) {
						end = len(data)
					}
					if _, err := p.Write(fd, data[off:end]); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
				_ = p.Close(fd)

				_ = srv.Listen(p)
				src, err := p.Open("/d0/file", kernel.ORdOnly)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				cfd, _, err := srv.Accept(p)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				moved, err := splice.Splice(p, src, cfd, splice.EOF)
				if err != nil {
					t.Errorf("splice: %v", err)
					return
				}
				if moved != int64(len(data)) {
					t.Errorf("splice moved %d bytes, want %d", moved, len(data))
				}
				_ = p.Close(src)
				_ = p.Close(cfd)
			})
			k.Spawn("client", func(p *kernel.Proc) {
				fd, _, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				got = readToEOF(t, p, fd)
				_ = p.Close(fd)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("client received %d bytes, want %d", len(got), len(data))
			}
		})
	}
}

// TestSplicedBlockOntoConnAllocatesNothing: the paper's server data
// path in its steady state — a cached file block lent to the send
// window, cut into segments, acknowledged and released — allocates
// nothing on either machine's side: counted from the half-way point of
// a 4 MB asynchronous splice (the queue of writes waiting for send-buffer
// room has grown to its depth by then) while it crosses a 10 Mb Ethernet
// to a client that reads and checks it.
func TestSplicedBlockOntoConnAllocatesNothing(t *testing.T) {
	m := fileMachine()
	k := m.K
	n := socket.NewNet(k, socket.Ethernet10())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	const size = 512 * 8192
	data := longPattern(size)
	var objects uint64
	var blocks int64
	k.Spawn("server", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		fd, _ := p.Open("/d0/file", kernel.OCreat|kernel.ORdWr)
		for off := 0; off < size; off += 8192 {
			if _, err := p.Write(fd, data[off:off+8192]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		_ = p.Close(fd)
		_ = srv.Listen(p)
		src, _ := p.Open("/d0/file", kernel.ORdOnly)
		cfd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		_, h, err := splice.SpliceOpts(p, src, cfd, splice.EOF, splice.Options{})
		if err != nil {
			t.Errorf("splice: %v", err)
			return
		}
		waitFor := func(moved int64) int64 {
			for h.Moved() < moved && !h.Done() {
				p.SleepFor(k.Config().TickDuration())
			}
			return h.Moved()
		}
		var before, after runtime.MemStats
		from := waitFor(size / 2)
		runtime.ReadMemStats(&before)
		to := waitFor(7 * size / 8)
		runtime.ReadMemStats(&after)
		if h.Done() {
			t.Error("the transfer finished inside the measured window")
		}
		objects, blocks = after.Mallocs-before.Mallocs, (to-from)/8192
		if err := h.Wait(p); err != nil {
			t.Errorf("splice: %v", err)
		}
		_ = p.Close(src)
		_ = p.Close(cfd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		got := make([]byte, 8192)
		for off := 0; ; {
			rn, err := p.Read(fd, got)
			if err != nil || !bytes.Equal(got[:rn], data[off:off+rn]) {
				t.Errorf("read at offset %d: %d bytes, err %v", off, rn, err)
				break
			}
			if off += rn; rn == 0 {
				if off != size {
					t.Errorf("end of stream after %d bytes, want %d", off, size)
				}
				break
			}
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The count is the whole runtime's: a stray object or two from the
	// test binary's background is not one per block.
	if blocks < 64 || objects > uint64(blocks)/16 {
		t.Fatalf("%d objects allocated while %d blocks moved, want none per block over at least 64", objects, blocks)
	}
}

// TestSendBufferNeverStoresIntoASharedBlock holds the sharing rule for
// payload blocks: a send buffer stores only into a block it holds alone.
// A 3 000-byte file is spliced onto a connection twice, with a write to
// the connection after each splice and a write over the file at the
// end, all before the client reads. Each splice leaves the send buffer's
// newest span inside the file's cache block, with free bytes after it
// that the block's other holders — the cache, the platter, the packets
// in flight — see too: a write stored there would land in the file's
// block, and the second write over the first one's bytes. The client
// must read the file's original bytes twice, each followed by its
// write, and the file must read its new bytes.
func TestSendBufferNeverStoresIntoASharedBlock(t *testing.T) {
	m := fileMachine()
	k := m.K
	n := socket.NewNet(k, socket.Ethernet10())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	orig, over := pattern(3000, 1), pattern(3000, 2)
	x, y := bytes.Repeat([]byte{'x'}, 100), bytes.Repeat([]byte{'y'}, 100)
	want := slices.Concat(orig, x, orig, y)
	var got, file []byte
	k.Spawn("server", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		fd, _ := p.Open("/d0/file", kernel.OCreat|kernel.ORdWr)
		if _, err := p.Write(fd, orig); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		_ = srv.Listen(p)
		cfd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for _, w := range [][]byte{x, y} {
			if _, err := p.Lseek(fd, 0, kernel.SeekSet); err != nil {
				t.Errorf("lseek: %v", err)
				return
			}
			if moved, err := splice.Splice(p, fd, cfd, splice.EOF); moved != int64(len(orig)) || err != nil {
				t.Errorf("splice = (%d, %v)", moved, err)
				return
			}
			if _, err := p.Write(cfd, w); err != nil {
				t.Errorf("write to the connection: %v", err)
				return
			}
		}
		_, _ = p.Lseek(fd, 0, kernel.SeekSet)
		if _, err := p.Write(fd, over); err != nil {
			t.Errorf("write over the file: %v", err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Error(err)
		}
		_, _ = p.Lseek(fd, 0, kernel.SeekSet)
		file = make([]byte, 4096)
		rn, _ := p.Read(fd, file)
		file = file[:rn]
		_ = p.Close(fd)
		_ = p.Close(cfd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		p.SleepFor(sim.Second) // everything is queued before the first read
		got = readToEOF(t, p, fd)
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Errorf("client read %d bytes, first wrong at %d; want the file, %d x, the file, %d y", len(got), i, len(x), len(y))
	}
	if !bytes.Equal(file, over) {
		t.Errorf("the file reads %d bytes, not the ones written over it", len(file))
	}
}

// spliceTransfer splices a size-byte file onto a stream connection on a
// file server's machine and reads it back on the client: the server's
// path of BenchmarkStreamTransfer.
func spliceTransfer(tb testing.TB, size int) {
	m := fileMachine()
	defer m.Release()
	k := m.K
	n := socket.NewNet(k, socket.Ethernet10())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	data := longPattern(size)
	k.Spawn("server", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			tb.Errorf("mount: %v", err)
			return
		}
		fd, _ := p.Open("/d0/file", kernel.OCreat|kernel.ORdWr)
		for off := 0; off < size; off += 8192 {
			if _, err := p.Write(fd, data[off:off+8192]); err != nil {
				tb.Errorf("write: %v", err)
				return
			}
		}
		_, _ = p.Lseek(fd, 0, kernel.SeekSet)
		_ = srv.Listen(p)
		cfd, _, err := srv.Accept(p)
		if err != nil {
			tb.Errorf("accept: %v", err)
			return
		}
		if _, err := splice.Splice(p, fd, cfd, splice.EOF); err != nil {
			tb.Errorf("splice: %v", err)
		}
		_ = p.Close(fd)
		_ = p.Close(cfd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			tb.Errorf("connect: %v", err)
			return
		}
		buf := make([]byte, 8192)
		for total := 0; ; {
			rn, err := p.Read(fd, buf)
			if err != nil || rn == 0 {
				if total != size {
					tb.Errorf("end of stream after %d bytes, err %v", total, err)
				}
				break
			}
			total += rn
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}
