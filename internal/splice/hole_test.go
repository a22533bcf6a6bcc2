package splice

import (
	"bytes"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// makeSparse creates path as a block of 0xAA, a hole and another block
// of 0xAA, returning what reading it must give.
func makeSparse(t *testing.T, p *kernel.Proc, path string) []byte {
	t.Helper()
	blk := bytes.Repeat([]byte{0xAA}, bsize)
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	_, _ = p.Write(fd, blk)
	_, _ = p.Lseek(fd, 2*bsize, kernel.SeekSet)
	_, _ = p.Write(fd, blk)
	_ = p.Close(fd)
	return append(append(append([]byte(nil), blk...), make([]byte, bsize)...), blk...)
}

// TestHoleBlockStaysZero: every hole a splice reads is a header over the
// cache's one zero block, so no write side may write through the data it
// is handed. After a sparse file is spliced to each write side — a file
// through aliasing headers, a file through copies (NoShare), a socket, a
// pipe, and a file whose blocks are mapped pages — the destination holds
// the zeros and the zero block is still all zeros. So it is after a
// private and a shared store into a mapped hole.
func TestHoleBlockStaysZero(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	pipes(m)
	net := socket.NewNet(m.k, socket.Loopback())
	out, _ := net.NewSocket(1)
	in, _ := net.NewSocket(2)
	_ = out.Connect(2)
	m.run(t, func(p *kernel.Proc) {
		want := makeSparse(t, p, "/d0/sparse")
		zero := m.cache.ZeroBlock()
		if &zero[0] != &m.cache.ZeroBlock()[0] || len(zero) != bsize {
			t.Fatal("ZeroBlock is not one block, the same at every call")
		}
		splice := func(name string, dst int, opts Options) {
			t.Helper()
			src, _ := p.Open("/d0/sparse", kernel.ORdOnly)
			if n, _, err := SpliceOpts(p, src, dst, EOF, opts); n != int64(len(want)) || err != nil {
				t.Fatalf("%s: splice moved %d, %v", name, n, err)
			}
			_ = p.Close(src)
			if !bytes.Equal(zero, make([]byte, bsize)) {
				t.Fatalf("%s: the zero block was written through", name)
			}
		}
		readBack := func(name string, fd int) {
			t.Helper()
			got := make([]byte, len(want))
			for off := 0; off < len(got); {
				n, err := p.Read(fd, got[off:])
				if err != nil || n == 0 {
					t.Fatalf("%s: read back %d bytes, %v", name, off, err)
				}
				off += n
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: the destination does not hold the sparse file", name)
			}
		}

		for _, c := range []struct {
			name string
			opts Options
		}{{"alias", Options{}}, {"NoShare", Options{NoShare: true}}} {
			dst, _ := p.Open("/d1/"+c.name, kernel.OCreat|kernel.OWrOnly)
			splice(c.name, dst, c.opts)
			_ = p.Close(dst)
			if !bytes.Equal(readAll(t, p, "/d1/"+c.name), want) {
				t.Errorf("%s: the destination does not hold the sparse file", c.name)
			}
		}

		sock, rcv := p.InstallFile(out, kernel.OWrOnly), p.InstallFile(in, kernel.ORdOnly)
		splice("socket", sock, Options{})
		readBack("socket", rcv)

		pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
		pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
		splice("pipe", pin, Options{})
		readBack("pipe", pout)

		makeFile(t, p, "/d1/mapped", len(want), 7)
		mfd, _ := p.Open("/d1/mapped", kernel.ORdWr)
		addr, err := p.Mmap(mfd, 0, int64(len(want)), kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		got := make([]byte, len(want))
		if err := p.MemRead(addr, got); err != nil { // every block resident, a held buffer
			t.Fatalf("load: %v", err)
		}
		splice("mapped", mfd, Options{})
		if err := p.MemRead(addr, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("mapped: the mapping does not show the sparse file (%v)", err)
		}
		_ = p.Munmap(addr)
		_ = p.Close(mfd)

		// A mapped hole's page reads the zero block itself. A private
		// store copies it and a shared store gives the page a block, so
		// neither writes through it.
		sfd, _ := p.Open("/d0/sparse", kernel.ORdWr)
		for _, flags := range []int{kernel.MapPrivate, kernel.MapShared} {
			addr, err := p.Mmap(sfd, 0, int64(len(want)), kernel.ProtRead|kernel.ProtWrite, flags)
			if err != nil {
				t.Fatalf("mmap %#x: %v", flags, err)
			}
			if err := p.MemRead(addr, got); err != nil || !bytes.Equal(got, want) {
				t.Errorf("mapped hole %#x: the mapping does not show the sparse file (%v)", flags, err)
			}
			if err := p.MemWrite(addr+bsize+5, []byte{0x55}); err != nil {
				t.Fatalf("store into the mapped hole %#x: %v", flags, err)
			}
			if err := p.MemRead(addr+bsize, got[:bsize]); err != nil || got[5] != 0x55 {
				t.Errorf("mapped hole %#x: the store is not the mapping's next load (%v)", flags, err)
			}
			if !bytes.Equal(zero, make([]byte, bsize)) {
				t.Fatalf("mapped hole %#x: the store wrote through the zero block", flags)
			}
			_ = p.Munmap(addr)
		}
		_ = p.Close(sfd)
	})
}

// nullSink completes every write at once.
type nullSink struct{}

func (nullSink) Read(kernel.Ctx, []byte, int64) (int, error)          { return 0, kernel.ErrOpNotSupp }
func (nullSink) Write(_ kernel.Ctx, b []byte, _ int64) (int, error)   { return len(b), nil }
func (nullSink) Close(kernel.Ctx) error                               { return nil }
func (nullSink) SpliceWrite(_ []byte, _ *sim.Block, done func(error)) { done(nil) }

// TestHoleBlockAllocatesNothing: a hole costs a header off the cache's
// empty list over its zero block, and nothing from the Go heap. A
// splice of a sparse file allocates what its descriptor and its tables
// take — its queues grow to the watermark bound, which 30 holes reach —
// as much for 60 hole blocks as for 30.
func TestHoleBlockAllocatesNothing(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		snk := p.InstallFile(nullSink{}, kernel.OWrOnly)
		spliceAllocs := func(path string, holes int) float64 {
			fd, _ := p.Open(path, kernel.OCreat|kernel.ORdWr)
			for _, blk := range []int{0, 1, 2, 3 + holes} { // four written blocks, the holes before the last
				_, _ = p.Lseek(fd, int64(blk)*bsize, kernel.SeekSet)
				_, _ = p.Write(fd, make([]byte, bsize))
			}
			size, _ := p.Lseek(fd, 0, kernel.SeekEnd)
			return testing.AllocsPerRun(10, func() {
				_, _ = p.Lseek(fd, 0, kernel.SeekSet)
				if n, err := Splice(p, fd, snk, EOF); n != size || err != nil {
					t.Fatalf("%s: splice moved %d of %d, %v", path, n, size, err)
				}
			})
		}
		some, many := spliceAllocs("/d0/s30", 30), spliceAllocs("/d0/s60", 60)
		if many != some {
			t.Errorf("a splice allocates %.0f times with 60 holes, %.0f with 30: want no allocation per hole block", many, some)
		}
	})
}
