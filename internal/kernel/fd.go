package kernel

import (
	"sort"
	"strings"

	"kdp/internal/trace"
)

// Errno-style errors shared across the I/O stack. They are constants so
// that returning one as an error converts static data and allocates
// nothing: a refused nonblocking call is the common case at interrupt
// level (splice retries on ErrWouldBlock every tick it is stalled).
const (
	ErrNoEnt       = errorString("no such file or directory")
	ErrBadFD       = errorString("bad file descriptor")
	ErrInval       = errorString("invalid argument")
	ErrExist       = errorString("file exists")
	ErrIsDir       = errorString("is a directory")
	ErrNotDir      = errorString("not a directory")
	ErrNoSpace     = errorString("no space left on device")
	ErrNxIO        = errorString("no such device or address")
	ErrROFS        = errorString("read-only file system")
	ErrOpNotSupp   = errorString("operation not supported")
	ErrFileTooBig  = errorString("file too large")
	ErrWouldBlock  = errorString("operation would block")
	ErrIO          = errorString("I/O error")
	ErrConnRefused = errorString("connection refused")
	ErrTimedOut    = errorString("connection timed out")
)

// Open flags, fcntl commands and the FASYNC bit, in the spirit of the
// Ultrix interface the paper extends.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreat  = 0x100
	OTrunc  = 0x200

	// OAppend starts every write, writev and batched write at end of
	// file, wherever the descriptor's offset was left (4.3BSD's
	// IO_APPEND). Splice does not: it moves data at the offset.
	OAppend = 0x400

	FSetFL = 1 // fcntl: set status flags
	FGetFL = 2 // fcntl: get status flags

	// ONonblock (FNDELAY) makes read/write on pollable objects return
	// ErrWouldBlock instead of sleeping; regular files are unaffected,
	// as in 4.3BSD. Set via open or fcntl F_SETFL.
	ONonblock = 0x800

	FAsync = 0x1000 // asynchronous splice operation (fcntl F_SETFL)
)

// FileOps is the per-object file interface: regular files, character
// devices and sockets all implement it. Offsets are managed by the
// descriptor layer; objects that have no notion of offset ignore it.
// Like 4.3BSD's struct fileops it holds only what the kernel calls on
// every object; what some objects have and others lack is an optional
// interface the kernel type-asserts (SizeOps, SyncOps, PollOps,
// ReadvOps, WritevOps).
//
// Read/Write move bytes between the caller's buffer and the object,
// charging device and cache costs internally; the user<->kernel copy
// cost is charged by the system-call layer on top.
type FileOps interface {
	Read(ctx Ctx, b []byte, off int64) (int, error)
	Write(ctx Ctx, b []byte, off int64) (int, error)
	Close(ctx Ctx) error
}

// SizeOps is implemented by objects with a size (regular files): fstat
// reports it, and lseek(SEEK_END) and an OAppend write start from it. An
// object without one has size 0, as 4.3BSD's soo_stat reported for a
// socket.
type SizeOps interface {
	Size(ctx Ctx) (int64, error)
}

// SyncOps is implemented by objects with state fsync can force out: a
// regular file's dirty blocks, a DAC's queued samples. fsync on any
// other object fails with ErrInval, as 4.3BSD's did on a descriptor
// that names no inode.
type SyncOps interface {
	Sync(ctx Ctx) error
}

// sizeOf returns the size of ops, 0 for an object without one.
func sizeOf(ctx Ctx, ops FileOps) (int64, error) {
	if s, ok := ops.(SizeOps); ok {
		return s.Size(ctx)
	}
	return 0, nil
}

// FDesc is an open-file descriptor table entry.
type FDesc struct {
	ops    FileOps
	offset int64
	flags  int

	// latched is an error deferred by a vectored or batched operation
	// that failed after moving bytes: the call reported its progress
	// and the error surfaces on the descriptor's next I/O (4.3BSD
	// readv/writev semantics).
	latched error
}

// takeLatched returns and clears the descriptor's deferred error.
func (f *FDesc) takeLatched() error {
	err := f.latched
	f.latched = nil
	return err
}

// Ops returns the underlying file object.
func (f *FDesc) Ops() FileOps { return f.ops }

// PendingError reports, without consuming, the deferred error latched
// on fd by a partially completed vectored or batched operation — a
// harness window into the 4.3BSD latch that does not perturb it. Not a
// syscall: nothing is charged and no trace events are emitted.
func (p *Proc) PendingError(fd int) error {
	f, err := p.FD(fd)
	if err != nil {
		return err
	}
	return f.latched
}

// Flags returns the descriptor status flags (including FAsync).
func (f *FDesc) Flags() int { return f.flags }

// Offset returns the current file offset.
func (f *FDesc) Offset() int64 { return f.offset }

// Advance moves the file offset by n (used by splice, which consumes
// from the descriptor like read/write do).
func (f *FDesc) Advance(n int64) { f.offset += n }

// FileSystem is the mountable-filesystem interface (implemented by
// internal/fs).
type FileSystem interface {
	// OpenFile resolves a path relative to the filesystem root.
	OpenFile(ctx Ctx, path string, flags int) (FileOps, error)
	// Remove unlinks a file.
	Remove(ctx Ctx, path string) error
}

type mountEntry struct {
	prefix string
	fs     FileSystem
}

type devEntry struct {
	path string
	open func(ctx Ctx) (FileOps, error)
}

// Mount attaches a filesystem at the given path prefix (e.g. "/d0").
// Longest-prefix match wins at lookup time. Mounting a prefix that is
// already mounted replaces the old filesystem — crash recovery remounts
// a repaired volume in place.
func (k *Kernel) Mount(prefix string, fs FileSystem) {
	if !strings.HasPrefix(prefix, "/") {
		panic("kernel: mount prefix must be absolute")
	}
	prefix = strings.TrimRight(prefix, "/")
	for i := range k.mounts {
		if k.mounts[i].prefix == prefix {
			k.mounts[i].fs = fs
			return
		}
	}
	k.mounts = append(k.mounts, mountEntry{prefix: prefix, fs: fs})
	sort.SliceStable(k.mounts, func(i, j int) bool {
		return len(k.mounts[i].prefix) > len(k.mounts[j].prefix)
	})
}

// RegisterDev registers a device special file (e.g. "/dev/speaker"); an
// open of exactly that path calls the opener.
func (k *Kernel) RegisterDev(path string, open func(ctx Ctx) (FileOps, error)) {
	k.devs = append(k.devs, devEntry{path: path, open: open})
}

// lookup resolves an absolute path to either a device opener or a
// (filesystem, relative-path) pair.
func (k *Kernel) lookup(path string) (dev *devEntry, fs FileSystem, rel string, err error) {
	if !strings.HasPrefix(path, "/") {
		return nil, nil, "", ErrNoEnt
	}
	for i := range k.devs {
		if k.devs[i].path == path {
			return &k.devs[i], nil, "", nil
		}
	}
	for _, m := range k.mounts {
		if path == m.prefix {
			return nil, m.fs, "/", nil
		}
		if strings.HasPrefix(path, m.prefix+"/") {
			return nil, m.fs, path[len(m.prefix):], nil
		}
	}
	return nil, nil, "", ErrNoEnt
}

// InstallFile places ops in the lowest free descriptor slot and returns
// the descriptor: the last step of Open, and how an object opened some
// other way (a socket, an accepted connection, a test fixture) enters
// the table.
func (p *Proc) InstallFile(ops FileOps, flags int) int {
	for i, f := range p.fds {
		if f == nil {
			p.fds[i] = &FDesc{ops: ops, flags: flags}
			return i
		}
	}
	p.fds = append(p.fds, &FDesc{ops: ops, flags: flags})
	return len(p.fds) - 1
}

// FD returns the descriptor table entry for fd.
func (p *Proc) FD(fd int) (*FDesc, error) {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd] == nil {
		return nil, ErrBadFD
	}
	return p.fds[fd], nil
}

// ReleaseFD removes fd from the descriptor table without closing the
// underlying object, returning it — the fd-passing primitive a server's
// accept loop uses to hand a connection to its handler process (which
// re-installs it with InstallFile).
func (p *Proc) ReleaseFD(fd int) (FileOps, error) {
	f, err := p.FD(fd)
	if err != nil {
		return nil, err
	}
	p.fds[fd] = nil
	return f.ops, nil
}

// SyscallEnter charges the fixed trap cost, counts the call, and emits
// the syscall-enter trace event. It returns name so the idiomatic
// call pattern pairs enter and exit in one line:
//
//	defer p.SyscallExit(p.SyscallEnter("open"))
//
// Syscalls implemented outside this package (splice) use the same
// pair, which keeps enter/exit events matched per process — a property
// the trace checker enforces.
func (p *Proc) SyscallEnter(name string) string {
	p.nsys++
	p.k.TraceEmit(trace.KindSyscallEnter, p.pid, 0, 0, name)
	p.UseK(p.k.cfg.SyscallCost)
	return name
}

// SyscallExit emits the syscall-exit trace event matching a prior
// SyscallEnter of the same name.
func (p *Proc) SyscallExit(name string) {
	p.k.TraceEmit(trace.KindSyscallExit, p.pid, 0, 0, name)
}

// closeAllFDs closes every open descriptor; called from the process's
// own coroutine at exit, since closing may sleep.
func (p *Proc) closeAllFDs() {
	for fd, f := range p.fds {
		if f != nil {
			_ = p.k.closeFD(p, fd)
		}
	}
}

// Open opens path with the given flags and returns a descriptor,
// resolving device special files and mounted filesystems.
func (p *Proc) Open(path string, flags int) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("open"))
	dev, fsys, rel, err := p.k.lookup(path)
	if err != nil {
		return -1, err
	}
	var ops FileOps
	if dev != nil {
		ops, err = dev.open(p.Ctx())
	} else {
		ops, err = fsys.OpenFile(p.Ctx(), rel, flags)
	}
	if err != nil {
		return -1, err
	}
	return p.InstallFile(ops, flags&^(OCreat|OTrunc)), nil
}

// Close closes a descriptor.
func (p *Proc) Close(fd int) error {
	defer p.SyscallExit(p.SyscallEnter("close"))
	return p.k.closeFD(p, fd)
}

func (k *Kernel) closeFD(p *Proc, fd int) error {
	f, err := p.FD(fd)
	if err != nil {
		return err
	}
	p.fds[fd] = nil
	return f.ops.Close(p.Ctx())
}

// ioFD is the prelude of every data-moving call: look fd up, refuse the
// access mode that forbids the direction (wrong is OWrOnly for a read,
// ORdOnly for a write), surface an error latched by an earlier partial
// transfer, move an OAppend write to end of file, and pick the execution
// context — nonblocking only when ONonblock is set and the object is
// pollable (regular files keep blocking disk I/O under ONonblock, as in
// BSD).
func (p *Proc) ioFD(fd, wrong int) (*FDesc, Ctx, error) {
	f, err := p.FD(fd)
	if err == nil && f.flags&0x3 == wrong {
		err = ErrBadFD
	}
	if err == nil {
		err = f.takeLatched()
	}
	if err == nil && wrong == ORdOnly && f.flags&OAppend != 0 {
		_, err = p.lseek(fd, 0, SeekEnd)
	}
	if err != nil {
		return nil, nil, err
	}
	if f.flags&ONonblock != 0 {
		if _, pollable := f.ops.(PollOps); pollable {
			return f, nbCtx{p}, nil
		}
	}
	return f, procCtx{p}, nil
}

// A system call is a crossing plus a body: the exported method pays the
// trap and emits the enter/exit pair, the unexported body does the work
// and is what an aggregated submission (Submit) dispatches to, its one
// crossing already paid.

// Read reads up to len(b) bytes at the current offset, charging the
// kernel-to-user copy for the bytes moved. Returns 0, nil at EOF.
func (p *Proc) Read(fd int, b []byte) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("read"))
	return p.read(fd, b)
}

func (p *Proc) read(fd int, b []byte) (int, error) {
	f, ctx, err := p.ioFD(fd, OWrOnly)
	if err != nil {
		return 0, err
	}
	n, err := f.ops.Read(ctx, b, f.offset)
	if n > 0 {
		p.UseK(p.k.cfg.CopyCost(n)) // copyout
		f.offset += int64(n)
	}
	return n, err
}

// Write writes len(b) bytes at the current offset, charging the
// user-to-kernel copy.
func (p *Proc) Write(fd int, b []byte) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("write"))
	return p.write(fd, b)
}

func (p *Proc) write(fd int, b []byte) (int, error) {
	f, ctx, err := p.ioFD(fd, ORdOnly)
	if err != nil {
		return 0, err
	}
	_, nb := ctx.(nbCtx)
	if !nb && len(b) > 0 {
		p.UseK(p.k.cfg.CopyCost(len(b))) // copyin, before the object sees b
	}
	n, err := f.ops.Write(ctx, b, f.offset)
	if n > 0 {
		if nb {
			// Nonblocking: the object may admit only part of b, so the
			// copyin is charged for the bytes actually taken.
			p.UseK(p.k.cfg.CopyCost(n))
		}
		f.offset += int64(n)
	}
	return n, err
}

// Whence values for Lseek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions the file offset.
func (p *Proc) Lseek(fd int, off int64, whence int) (int64, error) {
	defer p.SyscallExit(p.SyscallEnter("lseek"))
	return p.lseek(fd, off, whence)
}

func (p *Proc) lseek(fd int, off int64, whence int) (int64, error) {
	f, err := p.FD(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet: // base 0
	case SeekCur:
		base = f.offset
	case SeekEnd:
		sz, serr := sizeOf(p.Ctx(), f.ops)
		if serr != nil {
			return 0, serr
		}
		base = sz
	default:
		return 0, ErrInval
	}
	if base+off < 0 {
		return 0, ErrInval
	}
	f.offset = base + off
	return f.offset, nil
}

// Fcntl implements F_GETFL/F_SETFL; setting FAsync is how a caller
// requests asynchronous splice operation, per the paper's interface.
func (p *Proc) Fcntl(fd int, cmd int, arg int) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("fcntl"))
	f, err := p.FD(fd)
	if err != nil {
		return 0, err
	}
	switch cmd {
	case FGetFL:
		return f.flags, nil
	case FSetFL:
		f.flags = (f.flags & 0x3) | (arg &^ 0x3)
		return 0, nil
	default:
		return 0, ErrInval
	}
}

// Fsync forces the object's state to stable storage and waits: a file's
// dirty blocks, a DAC's queued samples. On an object without SyncOps it
// fails with ErrInval.
func (p *Proc) Fsync(fd int) error {
	defer p.SyscallExit(p.SyscallEnter("fsync"))
	return p.fsync(fd)
}

func (p *Proc) fsync(fd int) error {
	f, err := p.FD(fd)
	if err != nil {
		return err
	}
	s, ok := f.ops.(SyncOps)
	if !ok {
		return ErrInval
	}
	return s.Sync(p.Ctx())
}

// FileSize returns the current size of the open file (fstat st_size),
// 0 for an object without SizeOps.
func (p *Proc) FileSize(fd int) (int64, error) {
	defer p.SyscallExit(p.SyscallEnter("fstat"))
	f, err := p.FD(fd)
	if err != nil {
		return 0, err
	}
	return sizeOf(p.Ctx(), f.ops)
}

// Unlink removes a file by path.
func (p *Proc) Unlink(path string) error {
	defer p.SyscallExit(p.SyscallEnter("unlink"))
	dev, fsys, rel, err := p.k.lookup(path)
	if err != nil {
		return err
	}
	if dev != nil {
		return ErrInval
	}
	return fsys.Remove(p.Ctx(), rel)
}
