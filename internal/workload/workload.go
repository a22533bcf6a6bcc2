// Package workload implements the programs of the paper's evaluation
// (§6): the CPU-bound test program whose slowdown measures CPU
// availability, the read/write copier cp, and the splice copier scp —
// plus the file pre-creation and cache cold-start steps the methodology
// requires.
package workload

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/splice"
)

// closeAll closes fds after an operation that returned err, and
// reports err or, failing that, the first close error — so whatever a
// workload opens is closed on every return.
func closeAll(p *kernel.Proc, err error, fds ...int) error {
	for _, fd := range fds {
		if cerr := p.Close(fd); err == nil {
			err = cerr
		}
	}
	return err
}

// MakeFile creates path holding n bytes of a deterministic pattern,
// written through the normal write path (8KB at a time) and fsynced.
func MakeFile(p *kernel.Proc, path string, n int64, seed byte) error {
	fd, err := p.Open(path, kernel.OCreat|kernel.OWrOnly|kernel.OTrunc)
	if err != nil {
		return err
	}
	// Byte v of the file is byte(v>>8) ^ byte(v)*5 ^ seed, which repeats
	// every 64 KB, a multiple of the write size: the period is built
	// once and each write is a slice of it.
	const chunk, period = 8192, 1 << 16
	pat := make([]byte, min(n, period))
	for v := range pat {
		pat[v] = byte(v>>8) ^ byte(v)*5 ^ seed
	}
	for off := int64(0); off < n && err == nil; off += chunk {
		_, err = p.Write(fd, pat[off%period:][:min(chunk, n-off)])
	}
	if err == nil {
		err = p.Fsync(fd)
	}
	return closeAll(p, err, fd)
}

// ColdStart produces the paper's "read cache cold start condition" by
// flushing and invalidating every cached block of the given devices.
func ColdStart(p *kernel.Proc, cache *buf.Cache, devs ...buf.Device) error {
	for _, d := range devs {
		if err := cache.InvalidateDev(p.Ctx(), d); err != nil {
			return err
		}
	}
	return nil
}

// TestProgramResult reports a CPU-availability measurement.
type TestProgramResult struct {
	Ops     int
	Elapsed sim.Duration
}

// RunTestProgram executes the CPU-bound test program: ops operations of
// opCost user-mode compute each, and reports how long the fixed set of
// operations took. Comparing the elapsed time across environments
// yields the slowdown factors of Table 1.
func RunTestProgram(p *kernel.Proc, ops int, opCost sim.Duration) TestProgramResult {
	start := p.Now()
	for i := 0; i < ops; i++ {
		p.Compute(opCost)
	}
	return TestProgramResult{Ops: ops, Elapsed: p.Now().Sub(start)}
}

// CopyMode selects the data path a copy takes.
type CopyMode int

// Data paths. Each is one entry of the paths table below.
const (
	CopyReadWrite CopyMode = iota // cp: read()/write() through user space
	CopySplice                    // scp: one splice() system call
	CopyMmap                      // mcp: mmap both files, user-level memcpy
	CopyVectored                  // cpv: readv()/writev(), Vec iovecs per crossing
	CopyBatched                   // bcp: cp with reads/writes aggregated via Submit
)

// A Mover has the paper's one signature — move size bytes (splice.EOF:
// until the source ends) from the object open on srcFD to the one open
// on dstFD, reporting how many moved, short on error. splice() is the
// in-kernel implementation of it; every other data path is a
// user-level one.
type Mover func(p *kernel.Proc, srcFD, dstFD int, size int64) (int64, error)

// paths is the one table of data paths: everything that names a path,
// opens a destination for it or moves bytes along it looks here, so a
// new path is one entry.
var paths = [...]struct {
	name string
	// access opens the destination: write-only, except that mcp's
	// writable shared mapping needs a read/write descriptor.
	access int
	// fsync: when the spec asks for write-through, Copy follows the
	// move with fsync(dst). scp's splice is synchronous on its own and
	// mcp msyncs its mapping before unmapping it.
	fsync bool
	move  func(c *copier, p *kernel.Proc, srcFD, dstFD int, size int64) (int64, error)
}{
	CopyReadWrite: {"cp", kernel.OWrOnly, true, (*copier).cp},
	CopySplice:    {"scp", kernel.OWrOnly, false, (*copier).scp},
	CopyMmap:      {"mcp", kernel.ORdWr, false, (*copier).mcp},
	CopyVectored:  {"cpv", kernel.OWrOnly, true, (*copier).cpv},
	CopyBatched:   {"bcp", kernel.OWrOnly, true, (*copier).bcp},
}

func (m CopyMode) String() string { return paths[m].name }

// CopySpec describes one file copy.
type CopySpec struct {
	Src, Dst string
	Mode     CopyMode
	// BufSize is cp's user buffer (st_blksize, 8KB on the measured
	// system).
	BufSize int
	// LoopCost models cp's user-mode loop overhead per buffer: the
	// check-count-and-call-again code between read() and write(). This
	// is also the window where the scheduler can preempt cp. Zero
	// charges nothing.
	LoopCost sim.Duration
	// Fsync forces write-through at the end, as the paper's CP
	// methodology does ("calling fsync() on the destination file for
	// CP"). scp ignores it: its splice is synchronous on its own.
	Fsync bool
	// Vec is the number of BufSize iovecs (cpv) or batched ops (bcp)
	// carried per kernel crossing; zero means DefaultVec.
	Vec int
	// SpliceOptions tunes scp's flow control (zero = paper defaults).
	SpliceOptions splice.Options
}

// DefaultVec is the aggregation width of cpv and bcp: each crossing
// carries this many BufSize buffers, so the fixed trap and copy-setup
// costs are paid once per DefaultVec buffers instead of once per one.
const DefaultVec = 4

// DefaultCopySpec returns the paper's configuration for copying src to
// dst in the given mode, write-through as the paper's methodology
// requires: cp fsyncs and mcp msyncs the destination.
func DefaultCopySpec(src, dst string, mode CopyMode) CopySpec {
	return CopySpec{
		Src: src, Dst: dst, Mode: mode,
		BufSize:  8192,
		LoopCost: 25 * sim.Microsecond,
		Fsync:    true,
		Vec:      DefaultVec,
	}
}

// Mover returns spec's data path as a mover between two descriptors the
// caller has already opened (Src, Dst and Fsync play no part, except
// that mcp msyncs its mapping when Fsync is set). The mover keeps cp's
// user buffer from one call to the next, as a process keeps its own
// memory: one process calls it, since a move may sleep halfway, and
// each process that moves takes a Mover of its own.
func (spec CopySpec) Mover() Mover {
	c := &copier{CopySpec: spec}
	return func(p *kernel.Proc, srcFD, dstFD int, size int64) (int64, error) {
		return paths[spec.Mode].move(c, p, srcFD, dstFD, size)
	}
}

// CopyResult reports one completed copy (or, from the read-only
// workloads, one scan).
type CopyResult struct {
	Bytes   int64
	Elapsed sim.Duration
	Splice  splice.Stats // valid for CopySplice
}

// ThroughputKBs returns the copy throughput in kilobytes per second.
func (r CopyResult) ThroughputKBs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1024 / r.Elapsed.Seconds()
}

// Copy performs one copy according to spec and reports bytes moved and
// elapsed virtual time: open both files, move to end of file along the
// spec's data path, sync, close. Both descriptors are closed on every
// return; on error the result carries the bytes moved so far.
func Copy(p *kernel.Proc, spec CopySpec) (CopyResult, error) {
	if spec.Mode < 0 || int(spec.Mode) >= len(paths) {
		return CopyResult{}, kernel.ErrInval
	}
	path := &paths[spec.Mode]
	start := p.Now()
	src, err := p.Open(spec.Src, kernel.ORdOnly)
	if err != nil {
		return CopyResult{}, err
	}
	dst, err := p.Open(spec.Dst, kernel.OCreat|kernel.OTrunc|path.access)
	if err != nil {
		_ = p.Close(src)
		return CopyResult{}, err
	}
	c := copier{CopySpec: spec}
	n, err := path.move(&c, p, src, dst, splice.EOF)
	if err == nil && spec.Fsync && path.fsync {
		err = p.Fsync(dst)
	}
	err = closeAll(p, err, src, dst)
	return CopyResult{Bytes: n, Elapsed: p.Now().Sub(start), Splice: c.stats}, err
}

// copier is the state of one process's moves: the spec the movers read
// their tuning from, cp's user buffer, and the splice statistics scp
// leaves behind.
type copier struct {
	CopySpec
	buf   []byte
	stats splice.Stats
}

// more reports whether a mover that has moved so far bytes of size
// still has work to do.
func more(moved, size int64) bool { return size == splice.EOF || moved < size }

// iovs allocates the Vec user buffers of BufSize bytes that cpv and bcp
// carry per crossing.
func (c *copier) iovs() [][]byte {
	n := c.Vec
	if n <= 0 {
		n = DefaultVec
	}
	iovs := make([][]byte, n)
	for i := range iovs {
		iovs[i] = make([]byte, c.BufSize)
	}
	return iovs
}

// cp is the read/write loop: one BufSize buffer per pair of crossings,
// LoopCost of user-mode loop overhead between the read and the write of
// what it returned.
func (c *copier) cp(p *kernel.Proc, src, dst int, size int64) (moved int64, err error) {
	if len(c.buf) != c.BufSize {
		c.buf = make([]byte, c.BufSize)
	}
	buf := c.buf
	for more(moved, size) {
		n, err := p.Read(src, buf)
		if err != nil || n == 0 {
			return moved, err
		}
		p.Compute(c.LoopCost)
		w, err := p.Write(dst, buf[:n])
		if err != nil {
			return moved, err
		}
		moved += int64(w)
	}
	return moved, nil
}

// cpv is the cp loop with Vec iovecs per crossing — one readv and one
// writev move what cp needs 2*Vec syscalls for.
func (c *copier) cpv(p *kernel.Proc, src, dst int, size int64) (moved int64, err error) {
	iovs := c.iovs()
	for more(moved, size) {
		n, err := p.Readv(src, iovs)
		if err != nil || n == 0 {
			return moved, err
		}
		p.Compute(c.LoopCost)
		w, err := p.Writev(dst, trimIovs(iovs, n))
		if err != nil {
			return moved, err
		}
		moved += int64(w)
	}
	return moved, nil
}

// bcp is the cp loop with reads and writes aggregated through Submit —
// Vec reads cross the boundary together, then the Vec writes of what
// they returned, so 2 crossings carry what cp pays 2*Vec crossings for.
func (c *copier) bcp(p *kernel.Proc, src, dst int, size int64) (moved int64, err error) {
	bufs := c.iovs()
	for more(moved, size) {
		rops := make([]kernel.BatchOp, len(bufs))
		for i := range rops {
			rops[i] = kernel.BatchOp{Code: kernel.BatchRead, FD: src, Buf: bufs[i]}
		}
		wops := make([]kernel.BatchOp, 0, len(bufs))
		for i, r := range p.Submit(rops) {
			if r.Err != nil {
				return moved, r.Err
			}
			if r.N == 0 {
				break
			}
			wops = append(wops, kernel.BatchOp{Code: kernel.BatchWrite, FD: dst, Buf: bufs[i][:r.N]})
		}
		if len(wops) == 0 {
			break
		}
		p.Compute(c.LoopCost)
		for _, r := range p.Submit(wops) {
			if r.Err != nil {
				return moved, r.Err
			}
			moved += r.N
		}
	}
	return moved, nil
}

// scp is the paper's data path: one splice system call.
func (c *copier) scp(p *kernel.Proc, src, dst int, size int64) (int64, error) {
	n, h, err := splice.SpliceOpts(p, src, dst, size, c.SpliceOptions)
	if err != nil {
		return n, err
	}
	c.stats = h.Stats()
	return n, nil
}

// mcp maps both files and copies with user-level stores. Reads fault
// pages in straight off the buffer cache (no copyout), stores dirty
// mapped pages the VM pages out (no copyin) — the only data copy is the
// user memcpy, modeled at bcopy speed. Page faults price themselves
// inside MemRead/MemWrite.
func (c *copier) mcp(p *kernel.Proc, src, dst int, size int64) (moved int64, err error) {
	n, err := p.FileSize(src)
	if err != nil {
		return 0, err
	}
	if size != splice.EOF && size < n {
		n = size
	}
	if n <= 0 {
		return 0, nil
	}
	srcAddr, err := p.Mmap(src, 0, n, kernel.ProtRead, kernel.MapShared)
	if err != nil {
		return 0, err
	}
	dstAddr, err := p.Mmap(dst, 0, n, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
	if err != nil {
		return 0, err
	}
	cfg := p.Kernel().Config()
	chunk := make([]byte, c.BufSize)
	for moved < n {
		m := int64(c.BufSize)
		if moved+m > n {
			m = n - moved
		}
		if err := p.MemRead(srcAddr+moved, chunk[:m]); err != nil {
			return moved, err
		}
		p.Compute(cfg.BcopyCost(int(m)))
		p.Compute(c.LoopCost)
		if err := p.MemWrite(dstAddr+moved, chunk[:m]); err != nil {
			return moved, err
		}
		moved += m
	}
	if c.Fsync {
		if err := p.Msync(dstAddr); err != nil {
			return moved, err
		}
	}
	if err := p.Munmap(srcAddr); err != nil {
		return moved, err
	}
	return moved, p.Munmap(dstAddr)
}

// trimIovs returns a prefix of iovs covering exactly the first n bytes
// (the last entry truncated as needed), so a short readv's result can
// be handed to writev unchanged.
func trimIovs(iovs [][]byte, n int) [][]byte {
	out := make([][]byte, 0, len(iovs))
	for _, iov := range iovs {
		if n <= 0 {
			break
		}
		if n < len(iov) {
			iov = iov[:n]
		}
		out = append(out, iov)
		n -= len(iov)
	}
	return out
}

// scan is the frame of the read-only workloads: open path, run body on
// the descriptor to count the bytes it reads, close on every return,
// and time the whole.
func scan(p *kernel.Proc, path string, body func(fd int) (int64, error)) (CopyResult, error) {
	start := p.Now()
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		return CopyResult{}, err
	}
	n, err := body(fd)
	err = closeAll(p, err, fd)
	return CopyResult{Bytes: n, Elapsed: p.Now().Sub(start)}, err
}

// ReadSequential scans path start to finish in bufSize chunks — the
// access pattern the adaptive readahead engine detects. Each chunk
// continues where the previous one ended, so the per-inode window
// grows to the filesystem's cap and asynchronous block fetches overlap
// the copy-out loop.
func ReadSequential(p *kernel.Proc, path string, bufSize int) (CopyResult, error) {
	return scan(p, path, func(fd int) (total int64, err error) {
		buf := make([]byte, bufSize)
		for {
			n, err := p.Read(fd, buf)
			if err != nil || n == 0 {
				return total, err
			}
			total += int64(n)
		}
	})
}

// ReadRandom performs count reads of bufSize bytes at seed-derived
// offsets — the pattern that must collapse the readahead window. The
// offset sequence is a pure function of the seed, so the workload is
// deterministic and byte-identical across replays.
func ReadRandom(p *kernel.Proc, path string, bufSize, count int, seed uint64) (CopyResult, error) {
	return scan(p, path, func(fd int) (total int64, err error) {
		size, err := p.FileSize(fd)
		if err != nil {
			return 0, err
		}
		span := size - int64(bufSize)
		if span < 1 {
			span = 1
		}
		r := sim.NewRand(seed)
		buf := make([]byte, bufSize)
		for i := 0; i < count; i++ {
			if _, err := p.Lseek(fd, r.Int63n(span), kernel.SeekSet); err != nil {
				return total, err
			}
			n, err := p.Read(fd, buf)
			if err != nil {
				return total, err
			}
			total += int64(n)
		}
		return total, nil
	})
}

// LoopCopy repeatedly copies src to dst (re-establishing a cold cache
// for the source each round) until *stop becomes true, returning the
// number of completed rounds and total bytes. It keeps the copy load
// present for the whole lifetime of a concurrently running test
// program, as the Table 1 environments require.
func LoopCopy(p *kernel.Proc, spec CopySpec, cache *buf.Cache, devs []buf.Device, stop *bool) (rounds int, bytes int64, err error) {
	for !*stop {
		if err := ColdStart(p, cache, devs...); err != nil {
			return rounds, bytes, err
		}
		if *stop {
			break
		}
		res, err := Copy(p, spec)
		if err != nil {
			return rounds, bytes, err
		}
		rounds++
		bytes += res.Bytes
		if err := p.Unlink(spec.Dst); err != nil {
			return rounds, bytes, err
		}
	}
	return rounds, bytes, nil
}
