package kdp_test

import (
	"bytes"
	"testing"

	"kdp"
)

func twoDiskMachine(kind kdp.DiskKind) *kdp.Machine {
	return kdp.New(kdp.Config{
		Disks: []kdp.DiskSpec{
			{Mount: "/d0", Kind: kind},
			{Mount: "/d1", Kind: kind},
		},
		MaxRunTime: 600 * kdp.Second,
	})
}

func TestFacadeSpliceCopy(t *testing.T) {
	m := twoDiskMachine(kdp.DiskRAM)
	const size = 200000
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 7)
	}
	m.Spawn("main", func(p *kdp.Proc) {
		fd, err := p.Open("/d0/f", kdp.OCreat|kdp.OWrOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for off := 0; off < size; off += kdp.BlockSize {
			end := off + kdp.BlockSize
			if end > size {
				end = size
			}
			if _, err := p.Write(fd, want[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		_ = p.Close(fd)

		src, _ := p.Open("/d0/f", kdp.ORdOnly)
		dst, _ := p.Open("/d1/f", kdp.OCreat|kdp.OWrOnly)
		n, err := kdp.Splice(p, src, dst, kdp.SpliceEOF)
		if err != nil || n != size {
			t.Errorf("splice: n=%d err=%v", n, err)
			return
		}
		_ = p.Close(src)
		_ = p.Close(dst)

		got := make([]byte, size)
		vfd, _ := p.Open("/d1/f", kdp.ORdOnly)
		for off := 0; off < size; {
			r, err := p.Read(vfd, got[off:])
			if err != nil || r == 0 {
				t.Errorf("verify read: r=%d err=%v", r, err)
				return
			}
			off += r
		}
		if !bytes.Equal(got, want) {
			t.Error("facade splice corrupted data")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAsyncSpliceWithHandle(t *testing.T) {
	m := twoDiskMachine(kdp.DiskRZ58)
	const size = 10 * kdp.BlockSize
	m.Spawn("main", func(p *kdp.Proc) {
		fd, _ := p.Open("/d0/f", kdp.OCreat|kdp.OWrOnly)
		chunk := make([]byte, kdp.BlockSize)
		for i := 0; i < 10; i++ {
			_, _ = p.Write(fd, chunk)
		}
		_ = p.Close(fd)
		if err := m.ColdCaches(p); err != nil {
			t.Errorf("cold caches: %v", err)
			return
		}

		src, _ := p.Open("/d0/f", kdp.ORdOnly)
		dst, _ := p.Open("/d1/f", kdp.OCreat|kdp.OWrOnly)
		if _, err := p.Fcntl(src, kdp.FSetFL, kdp.FAsync); err != nil {
			t.Errorf("fcntl: %v", err)
			return
		}
		n, h, err := kdp.SpliceWithOptions(p, src, dst, kdp.SpliceEOF, kdp.SpliceOptions{})
		if err != nil || n != size {
			t.Errorf("async splice: n=%d err=%v", n, err)
			return
		}
		if h.Done() {
			t.Error("mechanical-disk splice finished synchronously")
		}
		if err := h.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if h.Moved() != size {
			t.Errorf("moved %d", h.Moved())
		}
		if st := h.Stats(); st.Shared != 10 || st.Callouts != 10 {
			t.Errorf("stats: %+v", st)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDACAndSplice(t *testing.T) {
	m := kdp.New(kdp.Config{
		Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
		MaxRunTime: 600 * kdp.Second,
	})
	dac := m.AddDAC(kdp.DACConfig{Path: "/dev/out", Rate: 1e6, Capture: true})
	const size = 3 * kdp.BlockSize
	m.Spawn("main", func(p *kdp.Proc) {
		fd, _ := p.Open("/d/audio", kdp.OCreat|kdp.OWrOnly)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		for off := 0; off < size; off += kdp.BlockSize {
			_, _ = p.Write(fd, data[off:off+kdp.BlockSize])
		}
		_ = p.Close(fd)
		src, _ := p.Open("/d/audio", kdp.ORdOnly)
		snd, err := p.Open("/dev/out", kdp.OWrOnly)
		if err != nil {
			t.Errorf("open dac: %v", err)
			return
		}
		if n, err := kdp.Splice(p, src, snd, kdp.SpliceEOF); err != nil || n != size {
			t.Errorf("splice to DAC: n=%d err=%v", n, err)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if dac.Played() != size {
		t.Fatalf("DAC played %d, want %d", dac.Played(), size)
	}
	cap := dac.Captured()
	for i := range cap {
		if cap[i] != byte(i) {
			t.Fatalf("captured byte %d wrong", i)
		}
	}
}

func TestFacadeNetworkRelay(t *testing.T) {
	m := kdp.New(kdp.Config{
		Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
		MaxRunTime: 600 * kdp.Second,
	})
	net := m.AddNet(kdp.NetLoopback)
	a, _ := net.NewSocket(1)
	b, _ := net.NewSocket(2)
	c, _ := net.NewSocket(3)
	d, _ := net.NewSocket(4)
	a.Connect(2)
	c.Connect(4)

	const total = 5 * 1000
	var got int
	m.Spawn("recv", func(p *kdp.Proc) {
		fd := p.InstallFile(d, kdp.ORdOnly)
		buf := make([]byte, 4096)
		for got < total {
			n, err := p.Read(fd, buf)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
	})
	m.Spawn("relay", func(p *kdp.Proc) {
		in := p.InstallFile(b, kdp.ORdOnly)
		out := p.InstallFile(c, kdp.OWrOnly)
		if n, err := kdp.Splice(p, in, out, total); err != nil || n != total {
			t.Errorf("relay: n=%d err=%v", n, err)
		}
	})
	m.Spawn("send", func(p *kdp.Proc) {
		fd := p.InstallFile(a, kdp.OWrOnly)
		for i := 0; i < 5; i++ {
			if _, err := p.Write(fd, make([]byte, 1000)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d, want %d", got, total)
	}
}

func TestFacadeFramebuffer(t *testing.T) {
	m := kdp.New(kdp.Config{
		Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
		MaxRunTime: 600 * kdp.Second,
	})
	fb := m.AddFramebuffer(kdp.FramebufferConfig{
		Path: "/dev/fb", FrameBytes: 512, FPS: 100, Frames: 7,
	})
	null := m.AddNull()
	m.Spawn("main", func(p *kdp.Proc) {
		src, err := p.Open("/dev/fb", kdp.ORdOnly)
		if err != nil {
			t.Errorf("open fb: %v", err)
			return
		}
		dst, _ := p.Open("/dev/null", kdp.OWrOnly)
		n, err := kdp.Splice(p, src, dst, kdp.SpliceEOF)
		if err != nil || n != 7*512 {
			t.Errorf("fb splice: n=%d err=%v", n, err)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fb.CapturedFrames() != 7 {
		t.Fatalf("captured %d frames", fb.CapturedFrames())
	}
	if null.BytesWritten() != 7*512 {
		t.Fatalf("null got %d bytes", null.BytesWritten())
	}
}

// TestDescriptorContract pins what fsync, fstat and lseek(SEEK_END) do
// on each kind of descriptor object. Only a regular file has a size;
// any other object reports 0, as 4.3BSD's soo_stat did for a socket.
// Only a file and the DAC have state fsync can force out; on any other
// object fsync fails with ErrInval, as 4.3BSD's did on a descriptor
// that names no inode.
func TestDescriptorContract(t *testing.T) {
	m := kdp.New(kdp.Config{
		Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
		MaxRunTime: 600 * kdp.Second,
	})
	m.AddNull()
	m.AddPipe("/dev/pipe", 0)
	m.AddDAC(kdp.DACConfig{Path: "/dev/dac", Rate: 1e6})
	m.AddFramebuffer(kdp.FramebufferConfig{Path: "/dev/fb", FrameBytes: 512, FPS: 100, Frames: 1})
	net := m.AddNet(kdp.NetLoopback)
	sock, _ := net.NewSocket(1)
	srv, _ := m.AddStreamTransport(net, 80)
	cli, _ := m.AddStreamTransport(net, 81)
	open := func(path string, flags int) func(*kdp.Proc) (int, error) {
		return func(p *kdp.Proc) (int, error) { return p.Open(path, flags) }
	}
	// written opens path and writes 1000 bytes into it.
	written := func(path string, flags int) func(*kdp.Proc) (int, error) {
		return func(p *kdp.Proc) (int, error) {
			fd, err := p.Open(path, flags)
			if err == nil {
				_, err = p.Write(fd, make([]byte, 1000))
			}
			return fd, err
		}
	}
	cases := []struct {
		name string
		open func(*kdp.Proc) (int, error)
		sync error // fsync's result
		size int64 // fstat's size, and the offset lseek(0, SEEK_END) sets
	}{
		{"null", open("/dev/null", kdp.ORdWr), kdp.ErrInval, 0},
		{"pipe", open("/dev/pipe", kdp.ORdWr), kdp.ErrInval, 0},
		{"framebuffer", open("/dev/fb", kdp.ORdOnly), kdp.ErrInval, 0},
		{"dac", written("/dev/dac", kdp.OWrOnly), nil, 0}, // fsync drains the bytes
		{"datagram socket", func(p *kdp.Proc) (int, error) {
			return p.InstallFile(sock, kdp.ORdWr), nil
		}, kdp.ErrInval, 0},
		{"stream listener", func(p *kdp.Proc) (int, error) {
			return p.InstallFile(srv.File(), kdp.ORdOnly), srv.Listen(p)
		}, kdp.ErrInval, 0},
		{"stream connection", func(p *kdp.Proc) (int, error) {
			fd, _, err := cli.Connect(p, 80)
			return fd, err
		}, kdp.ErrInval, 0},
		{"file", written("/d/f", kdp.OCreat|kdp.ORdWr), nil, 1000},
	}
	m.Spawn("main", func(p *kdp.Proc) {
		for _, c := range cases {
			fd, err := c.open(p)
			if err != nil {
				t.Errorf("%s: open: %v", c.name, err)
				continue
			}
			if err := p.Fsync(fd); err != c.sync {
				t.Errorf("%s: fsync = %v, want %v", c.name, err, c.sync)
			}
			if sz, err := p.FileSize(fd); sz != c.size || err != nil {
				t.Errorf("%s: fstat size = %d, %v, want %d", c.name, sz, err, c.size)
			}
			if off, err := p.Lseek(fd, 0, kdp.SeekEnd); off != c.size || err != nil {
				t.Errorf("%s: lseek(0, SEEK_END) = %d, %v, want %d", c.name, off, err, c.size)
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeChainedSpliceThroughPipe(t *testing.T) {
	m := kdp.New(kdp.Config{
		Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
		MaxRunTime: 600 * kdp.Second,
	})
	pipe := m.AddPipe("/dev/pipe", 16<<10)
	null := m.AddNull()
	const size = 8 * kdp.BlockSize
	m.Spawn("main", func(p *kdp.Proc) {
		fd, _ := p.Open("/d/src", kdp.OCreat|kdp.OWrOnly)
		for i := 0; i < 8; i++ {
			_, _ = p.Write(fd, make([]byte, kdp.BlockSize))
		}
		_ = p.Close(fd)

		src, _ := p.Open("/d/src", kdp.ORdOnly)
		pin, _ := p.Open("/dev/pipe", kdp.OWrOnly)
		pout, _ := p.Open("/dev/pipe", kdp.ORdOnly)
		sink, _ := p.Open("/dev/null", kdp.OWrOnly)
		_, _ = p.Fcntl(pout, kdp.FSetFL, kdp.FAsync)
		_, h, err := kdp.SpliceWithOptions(p, pout, sink, size, kdp.SpliceOptions{})
		if err != nil {
			t.Errorf("drain splice: %v", err)
			return
		}
		if n, err := kdp.Splice(p, src, pin, kdp.SpliceEOF); err != nil || n != size {
			t.Errorf("feed splice: n=%d err=%v", n, err)
			return
		}
		if err := h.Wait(p); err != nil {
			t.Errorf("drain wait: %v", err)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if null.BytesWritten() != size {
		t.Fatalf("chained pipeline delivered %d of %d bytes", null.BytesWritten(), size)
	}
	if in, out := pipe.Transferred(); in != size || out != size {
		t.Fatalf("pipe counters in=%d out=%d", in, out)
	}
}

// TestFsyncPassesBuffersASpliceHolds: a splice keeps cache buffers busy
// until its peer makes progress — source blocks until the sink takes
// them, a staged destination block until the source fills it — so fsync
// must not wait them out, or a process that fsyncs before it drains (or
// feeds) its own asynchronous splice sleeps forever.
func TestFsyncPassesBuffersASpliceHolds(t *testing.T) {
	const size = 8 * kdp.BlockSize
	t.Run("file into an unread pipe", func(t *testing.T) {
		m := kdp.New(kdp.Config{
			Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
			MaxRunTime: 600 * kdp.Second,
		})
		m.AddPipe("/dev/pipe", 16<<10)
		m.Spawn("main", func(p *kdp.Proc) {
			want := bytes.Repeat([]byte("fsync"), size/5+1)[:size]
			fd, _ := p.Open("/d/src", kdp.OCreat|kdp.ORdWr)
			if n, err := p.Write(fd, want); n != size || err != nil {
				t.Errorf("write: n=%d err=%v", n, err)
				return
			}
			src, _ := p.Open("/d/src", kdp.ORdOnly)
			pin, _ := p.Open("/dev/pipe", kdp.OWrOnly)
			pout, _ := p.Open("/dev/pipe", kdp.ORdOnly)
			_, _ = p.Fcntl(src, kdp.FSetFL, kdp.FAsync)
			_, h, err := kdp.SpliceWithOptions(p, src, pin, size, kdp.SpliceOptions{})
			if err != nil {
				t.Errorf("splice: %v", err)
				return
			}
			if err := p.Fsync(fd); err != nil {
				t.Errorf("fsync of the source: %v", err)
			}
			got := make([]byte, size)
			for off := 0; off < size; {
				n, err := p.Read(pout, got[off:])
				if err != nil || n == 0 {
					t.Errorf("pipe read at %d: n=%d err=%v", off, n, err)
					return
				}
				off += n
			}
			if err := h.Wait(p); err != nil {
				t.Errorf("splice wait: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Error("pipe delivered the wrong bytes")
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unfed pipe into a file", func(t *testing.T) {
		m := kdp.New(kdp.Config{
			Disks:      []kdp.DiskSpec{{Mount: "/d", Kind: kdp.DiskRAM}},
			MaxRunTime: 600 * kdp.Second,
		})
		m.AddPipe("/dev/pipe", 16<<10)
		m.Spawn("main", func(p *kdp.Proc) {
			want := bytes.Repeat([]byte("stage"), size/5+1)[:size]
			pin, _ := p.Open("/dev/pipe", kdp.OWrOnly)
			pout, _ := p.Open("/dev/pipe", kdp.ORdOnly)
			dst, _ := p.Open("/d/dst", kdp.OCreat|kdp.OWrOnly)
			if _, err := p.Write(pin, want[:100]); err != nil {
				t.Errorf("pipe write: %v", err)
				return
			}
			_, _ = p.Fcntl(pout, kdp.FSetFL, kdp.FAsync)
			_, h, err := kdp.SpliceWithOptions(p, pout, dst, size, kdp.SpliceOptions{})
			if err != nil {
				t.Errorf("splice: %v", err)
				return
			}
			p.SleepFor(kdp.Millisecond) // the first block is staged, part-filled
			if err := p.Fsync(dst); err != nil {
				t.Errorf("fsync of the destination: %v", err)
			}
			if _, err := p.Write(pin, want[100:]); err != nil {
				t.Errorf("pipe write: %v", err)
				return
			}
			if err := h.Wait(p); err != nil {
				t.Errorf("splice wait: %v", err)
			}
			rd, _ := p.Open("/d/dst", kdp.ORdOnly)
			got := make([]byte, size)
			if n, err := p.Read(rd, got); n != size || err != nil || !bytes.Equal(got, want) {
				t.Errorf("destination read back: n=%d err=%v, equal=%v", n, err, bytes.Equal(got, want))
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() kdp.Time {
		m := twoDiskMachine(kdp.DiskRZ56)
		m.Spawn("main", func(p *kdp.Proc) {
			fd, _ := p.Open("/d0/f", kdp.OCreat|kdp.OWrOnly)
			for i := 0; i < 32; i++ {
				_, _ = p.Write(fd, make([]byte, kdp.BlockSize))
			}
			_ = p.Close(fd)
			_ = m.ColdCaches(p)
			src, _ := p.Open("/d0/f", kdp.ORdOnly)
			dst, _ := p.Open("/d1/f", kdp.OCreat|kdp.OWrOnly)
			_, _ = kdp.Splice(p, src, dst, kdp.SpliceEOF)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical machines diverged: %v vs %v", a, b)
	}
}

func TestFacadeStatsAccessors(t *testing.T) {
	m := twoDiskMachine(kdp.DiskRAM)
	mt := m.Kernel().StartTrace(nil).Metrics()
	m.Spawn("main", func(p *kdp.Proc) {
		fd, _ := p.Open("/d0/f", kdp.OCreat|kdp.OWrOnly)
		_, _ = p.Write(fd, make([]byte, kdp.BlockSize))
		_ = p.Close(fd)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 3.2MB of 8KB buffers = 409 (truncated), the measured system's cache.
	if m.BufferCache().NumBuffers() != 409 {
		t.Fatalf("cache buffers = %d", m.BufferCache().NumBuffers())
	}
	if mt.BufMisses == 0 || m.BufferCache().Stats().Recycles == 0 {
		t.Fatal("no cache activity recorded")
	}
	if m.FS(0) == nil || m.Kernel() == nil || m.Disk(0) == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestFacadeMmap(t *testing.T) {
	m := twoDiskMachine(kdp.DiskRAM)
	const size = 3 * kdp.BlockSize
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*13 + 5)
	}
	m.Spawn("main", func(p *kdp.Proc) {
		// Store through a shared writable mapping, msync, unmap.
		fd, err := p.Open("/d0/f", kdp.OCreat|kdp.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		addr, err := p.Mmap(fd, 0, size, kdp.ProtRead|kdp.ProtWrite, kdp.MapShared)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		_ = p.Close(fd) // the mapping outlives the descriptor
		if err := p.MemWrite(addr, want); err != nil {
			t.Errorf("memwrite: %v", err)
			return
		}
		if err := p.Msync(addr); err != nil {
			t.Errorf("msync: %v", err)
			return
		}
		if err := p.Munmap(addr); err != nil {
			t.Errorf("munmap: %v", err)
			return
		}

		// The stores must be visible to plain read().
		got := make([]byte, size)
		rfd, _ := p.Open("/d0/f", kdp.ORdOnly)
		for off := 0; off < size; {
			r, err := p.Read(rfd, got[off:])
			if err != nil || r == 0 {
				t.Errorf("read: r=%d err=%v", r, err)
				return
			}
			off += r
		}
		_ = p.Close(rfd)
		if !bytes.Equal(got, want) {
			t.Error("mmap stores not visible through read()")
		}

		// And to a read-only mapping on the second volume after a copy.
		rfd, _ = p.Open("/d0/f", kdp.ORdOnly)
		raddr, err := p.Mmap(rfd, 0, size, kdp.ProtRead, kdp.MapShared)
		if err != nil {
			t.Errorf("mmap ro: %v", err)
			return
		}
		_ = p.Close(rfd)
		back := make([]byte, size)
		if err := p.MemRead(raddr, back); err != nil {
			t.Errorf("memread: %v", err)
			return
		}
		_ = p.Munmap(raddr)
		if !bytes.Equal(back, want) {
			t.Error("mmap read differs from written data")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.VMPool().Resident() != 0 {
		t.Fatalf("%d pages resident after all mappings unmapped", m.VMPool().Resident())
	}
}

// TestFacadeDefaultShape pins what kdp.New asks the one assembler for
// when the Config leaves everything to defaults.
func TestFacadeDefaultShape(t *testing.T) {
	m := twoDiskMachine(kdp.DiskRZ58)
	if n := m.BufferCache().NumBuffers(); n != 409 {
		t.Errorf("default cache: %d buffers, want int(3.2MB/8KB) = 409", n)
	}
	if got := m.VMPool().Frames(); got != 51 {
		t.Errorf("default page pool: %d frames, want an eighth of 409 buffers = 51", got)
	}
	for i, name := range []string{"rz58-0", "rz58-1"} {
		if got := m.Disk(i).DevName(); got != name {
			t.Errorf("disk %d is called %q, want %q", i, got, name)
		}
		if got := m.Disk(i).DevBlocks(); got != 16<<20/kdp.BlockSize {
			t.Errorf("disk %d: %d blocks, want 16MB", i, got)
		}
		if got := m.FS(i).Super().NInodes; got != 256 {
			t.Errorf("disk %d: %d inodes, want 256", i, got)
		}
	}
}
