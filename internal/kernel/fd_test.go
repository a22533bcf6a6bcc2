package kernel

import (
	"testing"

	"kdp/internal/sim"
)

// memFile is a minimal in-memory FileOps for exercising the descriptor
// layer without a filesystem.
type memFile struct {
	data    []byte
	closed  bool
	syncs   int
	failers map[string]error
}

func (m *memFile) Read(ctx Ctx, b []byte, off int64) (int, error) {
	if err := m.failers["read"]; err != nil {
		return 0, err
	}
	if off >= int64(len(m.data)) {
		return 0, nil
	}
	n := copy(b, m.data[off:])
	return n, nil
}

func (m *memFile) Write(ctx Ctx, b []byte, off int64) (int, error) {
	if err := m.failers["write"]; err != nil {
		return 0, err
	}
	need := off + int64(len(b))
	if int64(len(m.data)) < need {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], b)
	return len(b), nil
}

func (m *memFile) Size(ctx Ctx) (int64, error) { return int64(len(m.data)), nil }
func (m *memFile) Sync(ctx Ctx) error          { m.syncs++; return nil }
func (m *memFile) Close(ctx Ctx) error         { m.closed = true; return nil }

// memFS is a single-directory FileSystem over memFiles.
type memFS struct {
	files map[string]*memFile
}

func (f *memFS) OpenFile(ctx Ctx, path string, flags int) (FileOps, error) {
	mf, ok := f.files[path]
	if !ok {
		if flags&OCreat == 0 {
			return nil, ErrNoEnt
		}
		mf = &memFile{}
		f.files[path] = mf
	}
	if flags&OTrunc != 0 {
		mf.data = nil
	}
	return mf, nil
}

func (f *memFS) Remove(ctx Ctx, path string) error {
	if _, ok := f.files[path]; !ok {
		return ErrNoEnt
	}
	delete(f.files, path)
	return nil
}

func newFDRig() (*Kernel, *memFS) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := New(cfg)
	fsys := &memFS{files: map[string]*memFile{}}
	k.Mount("/m", fsys)
	return k, fsys
}

func runFD(t *testing.T, k *Kernel, fn func(*Proc)) {
	t.Helper()
	k.Spawn("t", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReadWriteOffsets(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, err := p.Open("/m/x", OCreat|ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := p.Write(fd, []byte("hello ")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, []byte("world")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Lseek(fd, 0, SeekSet); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		n, err := p.Read(fd, buf)
		if err != nil || string(buf[:n]) != "hello world" {
			t.Fatalf("read %q err=%v", buf[:n], err)
		}
		// Offset now at EOF.
		if n, _ := p.Read(fd, buf); n != 0 {
			t.Fatalf("read at EOF returned %d", n)
		}
	})
}

func TestLseekWhence(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|ORdWr)
		_, _ = p.Write(fd, make([]byte, 100))
		if off, _ := p.Lseek(fd, 10, SeekSet); off != 10 {
			t.Fatalf("SeekSet: %d", off)
		}
		if off, _ := p.Lseek(fd, 5, SeekCur); off != 15 {
			t.Fatalf("SeekCur: %d", off)
		}
		if off, _ := p.Lseek(fd, -20, SeekEnd); off != 80 {
			t.Fatalf("SeekEnd: %d", off)
		}
		if _, err := p.Lseek(fd, -200, SeekCur); err != ErrInval {
			t.Fatalf("negative seek: %v", err)
		}
		if _, err := p.Lseek(fd, 0, 99); err != ErrInval {
			t.Fatalf("bad whence: %v", err)
		}
	})
}

func TestOpenAppendPositionsAtEnd(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/log", OCreat|OWrOnly)
		_, _ = p.Write(fd, []byte("first"))
		_ = p.Close(fd)
		fd2, err := p.Open("/m/log", OWrOnly|OAppend)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = p.Write(fd2, []byte("+second"))
		_ = p.Close(fd2)
		rd, _ := p.Open("/m/log", ORdOnly)
		buf := make([]byte, 64)
		n, _ := p.Read(rd, buf)
		if string(buf[:n]) != "first+second" {
			t.Fatalf("append produced %q", buf[:n])
		}
	})
}

// TestAppendWritesAtEnd pins 4.3BSD's IO_APPEND: every write, writev and
// batched write on an OAppend descriptor starts at end of file, wherever
// the descriptor's offset was left by another appender's write or by an
// lseek.
func TestAppendWritesAtEnd(t *testing.T) {
	k, fsys := newFDRig()
	runFD(t, k, func(p *Proc) {
		a, _ := p.Open("/m/log", OCreat|OWrOnly|OAppend)
		b, _ := p.Open("/m/log", OWrOnly|OAppend)
		if _, err := p.Write(a, []byte("one ")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Writev(b, [][]byte{[]byte("two"), []byte(" ")}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Lseek(a, 0, SeekSet); err != nil {
			t.Fatal(err)
		}
		if res := p.Submit([]BatchOp{{Code: BatchWrite, FD: a, Buf: []byte("three")}}); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	if got := string(fsys.files["/log"].data); got != "one two three" {
		t.Fatalf("appends left %q, want %q", got, "one two three")
	}
}

func TestAccessModeEnforcement(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|OWrOnly)
		if _, err := p.Read(fd, make([]byte, 4)); err != ErrBadFD {
			t.Fatalf("read on write-only: %v", err)
		}
		_, _ = p.Write(fd, []byte("abc"))
		_ = p.Close(fd)
		rd, _ := p.Open("/m/x", ORdOnly)
		if _, err := p.Write(rd, []byte("no")); err != ErrBadFD {
			t.Fatalf("write on read-only: %v", err)
		}
	})
}

func TestFcntlFlags(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|ORdWr)
		fl, err := p.Fcntl(fd, FGetFL, 0)
		if err != nil || fl&FAsync != 0 {
			t.Fatalf("initial flags %#x err=%v", fl, err)
		}
		if _, err := p.Fcntl(fd, FSetFL, FAsync); err != nil {
			t.Fatal(err)
		}
		fl, _ = p.Fcntl(fd, FGetFL, 0)
		if fl&FAsync == 0 {
			t.Fatal("FAsync not set")
		}
		// Access mode bits must survive F_SETFL.
		if fl&0x3 != ORdWr {
			t.Fatalf("access mode clobbered: %#x", fl)
		}
		if _, err := p.Fcntl(fd, 99, 0); err != ErrInval {
			t.Fatalf("bad fcntl cmd: %v", err)
		}
	})
}

func TestBadDescriptorOperations(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		if _, err := p.Read(42, make([]byte, 4)); err != ErrBadFD {
			t.Fatalf("read bad fd: %v", err)
		}
		if err := p.Close(42); err != ErrBadFD {
			t.Fatalf("close bad fd: %v", err)
		}
		fd, _ := p.Open("/m/x", OCreat|ORdWr)
		_ = p.Close(fd)
		if err := p.Close(fd); err != ErrBadFD {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestDescriptorSlotReuse(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		a, _ := p.Open("/m/a", OCreat|ORdWr)
		b, _ := p.Open("/m/b", OCreat|ORdWr)
		_ = p.Close(a)
		c, _ := p.Open("/m/c", OCreat|ORdWr)
		if c != a {
			t.Fatalf("lowest free slot not reused: got %d, want %d", c, a)
		}
		_ = p.Close(b)
		_ = p.Close(c)
	})
}

func TestUnlinkThroughMountTable(t *testing.T) {
	k, fsys := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/gone", OCreat|OWrOnly)
		_ = p.Close(fd)
		if err := p.Unlink("/m/gone"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if _, ok := fsys.files["/gone"]; ok {
			t.Fatal("file still present in filesystem")
		}
		if err := p.Unlink("/m/gone"); err != ErrNoEnt {
			t.Fatalf("re-unlink: %v", err)
		}
		if err := p.Unlink("/nowhere/x"); err != ErrNoEnt {
			t.Fatalf("unlink unmounted path: %v", err)
		}
	})
}

func TestMountLongestPrefixWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 10 * sim.Second
	k := New(cfg)
	outer := &memFS{files: map[string]*memFile{}}
	inner := &memFS{files: map[string]*memFile{}}
	k.Mount("/m", outer)
	k.Mount("/m/sub", inner)
	runFD(t, k, func(p *Proc) {
		fd, err := p.Open("/m/sub/file", OCreat|OWrOnly)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = p.Write(fd, []byte("inner"))
		_ = p.Close(fd)
	})
	if _, ok := inner.files["/file"]; !ok {
		t.Fatal("longest-prefix mount not selected")
	}
	if len(outer.files) != 0 {
		t.Fatal("outer filesystem touched")
	}
}

func TestReadWriteChargeCopyTime(t *testing.T) {
	k, _ := newFDRig()
	var readTime, baseline sim.Duration
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|ORdWr)
		_, _ = p.Write(fd, make([]byte, 65536))
		_, _ = p.Lseek(fd, 0, SeekSet)
		base0 := p.SysTime()
		_, _ = p.Lseek(fd, 0, SeekSet)
		baseline = p.SysTime() - base0 // one syscall's worth
		t0 := p.SysTime()
		_, _ = p.Read(fd, make([]byte, 65536))
		readTime = p.SysTime() - t0
	})
	// A 64KB read must cost far more than a data-less syscall: the
	// copyout dominates.
	if readTime < 10*baseline {
		t.Fatalf("64KB read cost %v vs %v baseline; copy not charged", readTime, baseline)
	}
}

func TestExitClosesDescriptors(t *testing.T) {
	k, fsys := newFDRig()
	runFD(t, k, func(p *Proc) {
		_, _ = p.Open("/m/left-open", OCreat|OWrOnly)
		// exit without closing
	})
	if !fsys.files["/left-open"].closed {
		t.Fatal("descriptor not closed at process exit")
	}
}

func TestFsyncReachesFile(t *testing.T) {
	k, fsys := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|OWrOnly)
		if err := p.Fsync(fd); err != nil {
			t.Fatal(err)
		}
	})
	if fsys.files["/x"].syncs != 1 {
		t.Fatal("fsync not forwarded")
	}
}

func TestFileSizeSyscall(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/x", OCreat|ORdWr)
		_, _ = p.Write(fd, make([]byte, 1234))
		sz, err := p.FileSize(fd)
		if err != nil || sz != 1234 {
			t.Fatalf("size = %d err=%v", sz, err)
		}
	})
}
