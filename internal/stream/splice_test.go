package stream

import (
	"bytes"
	"runtime"
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
