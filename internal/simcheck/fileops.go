package simcheck

import (
	"errors"
	"fmt"

	"kdp/internal/kernel"
)

// The plain file ops. A range read is open (reconciled with the
// oracle) → fetch → verify against the oracle's bytes; a range write is
// open → store → fold the stored bytes into the oracle. read, seq-read,
// readv, the batch read, mmap-read and mmap-private differ only in
// their fetch;
// write, writev, the batch write and the mmap stores only in their
// store — as in the kernel under test, where they are one uio mover
// reached by different routes.

// A fetch returns the bytes it got through fd, which it closes, and
// anything it wants appended to the op's ok line. An error means the
// I/O failed and taints the file — unless it is a skipped, or the fetch
// raised a violation itself.
type fetchFunc func(m *machine, p *kernel.Proc, fd int, o *op) (got []byte, note string, err error)

// A store puts data — the op's pattern at o.off — into the file behind
// fd, which it closes. durable reports that the store included a
// successful sync; an error means the range is partially applied and
// taints the file — unless it is a skipped, or the store raised a
// violation itself.
type storeFunc func(m *machine, p *kernel.Proc, fd int, o *op, data []byte) (note string, durable bool, err error)

// skipped is the error of a fetch or store that gave up before moving
// any data: the op logs it and leaves the file's content model alone.
type skipped string

func (s skipped) Error() string { return string(s) }

// seekTo positions fd for a ranged fetch or store, closing it on failure.
func seekTo(p *kernel.Proc, fd int, off int64) error {
	if _, err := p.Lseek(fd, off, kernel.SeekSet); err != nil {
		p.Close(fd)
		return skipped(fmt.Sprintf("lseek: %v", err))
	}
	return nil
}

// rangeRead builds a read op from its fetch. whole ops read the file
// start to finish rather than [o.off, o.off+o.size).
func rangeRead(whole bool, fetch fetchFunc) opFunc {
	return func(m *machine, p *kernel.Proc, o *op) {
		of, fd, ok := m.openChecked(p, o)
		if !ok {
			return
		}
		got, note, err := fetch(m, p, fd, o)
		switch {
		case m.violation != nil: // raised inside the fetch, already reported
		case err != nil:
			if of != nil && !errors.As(err, new(skipped)) {
				of.tainted = true
			}
			m.opLog(o, "%v", err)
		default:
			m.verifyRange(o, of, got, whole, note)
		}
	}
}

// openChecked opens the op's file for reading and reconciles the
// outcome with the oracle: a file the oracle knows must exist, a file
// it never saw created must not. ok is false when the op is over
// (logged or failed).
func (m *machine) openChecked(p *kernel.Proc, o *op) (of *ofile, fd int, ok bool) {
	path := o.path()
	of = m.oracle[path]
	fd, err := p.Open(path, kernel.ORdOnly)
	switch {
	case err == nil:
		if of == nil && m.checkable(o.disk) {
			p.Close(fd)
			m.violate("oracle-absent", "%s opened but the oracle says it was never created", path)
			return nil, 0, false
		}
		return of, fd, true
	case errors.Is(err, kernel.ErrNoEnt):
		m.absent(o, of, err)
	default:
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, "open: %v", err)
	}
	return nil, 0, false
}

// absent handles ENOENT for the op's file: a violation if the oracle
// knows the file exists, otherwise the expected outcome.
func (m *machine) absent(o *op, of *ofile, err error) {
	if of != nil && !of.tainted && m.checkable(o.disk) {
		m.violate("oracle-exists", "%s: %v, but oracle has %d bytes", o.path(), err, of.data.size)
		return
	}
	m.opLog(o, "absent")
}

// verifyRange holds the bytes a fetch returned against the oracle's
// bytes for the window the op asked for.
func (m *machine) verifyRange(o *op, of *ofile, got []byte, whole bool, note string) {
	if of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, "n=%d (unchecked)", len(got))
		return
	}
	off, want := 0, of.data.size
	if !whole {
		off, want = int(o.off), min(max(of.data.size-int(o.off), 0), o.size)
	}
	if len(got) != want {
		m.violate("oracle-size", "%s %s off=%d returned %d bytes, oracle expects %d",
			o.row.name, o.path(), off, len(got), want)
		return
	}
	if len(got) == 0 && !whole {
		m.opLog(o, "ok n=0 (past eof)")
		return
	}
	if i := of.data.diff(off, got); i >= 0 {
		m.violate("oracle-content", "%s %s differs at byte %d: got %#02x, oracle %#02x",
			o.row.name, o.path(), off+i, got[i], of.data.span(off + i)[0])
		return
	}
	m.opLog(o, "ok n=%d%s", len(got), note)
}

func fetchRead(m *machine, p *kernel.Proc, fd int, o *op) ([]byte, string, error) {
	if err := seekTo(p, fd, o.off); err != nil {
		return nil, "", err
	}
	data := m.ioBuf(o.worker, 0, o.size)
	n, err := p.Read(fd, data)
	p.Close(fd)
	if err != nil {
		return nil, "", fmt.Errorf("read: %v", err)
	}
	return data[:n], "", nil
}

// fetchSeq scans the whole file start to finish in seed-derived chunks
// — the access pattern the adaptive readahead engine exists for. Each
// chunked read continues exactly where the previous one ended, so the
// inode's window grows and asynchronous readaheads flow through the
// cache's budgeted issue path while the probe re-validates the
// readahead invariants (flag discipline, pending count, budget clamp)
// at every boundary.
func fetchSeq(m *machine, p *kernel.Proc, fd int, o *op) ([]byte, string, error) {
	// Chunks smaller than a block keep consecutive reads inside and
	// across block boundaries strictly sequential. They land in a
	// buffer sized for the file the oracle expects; a longer one moves
	// to a buffer of its own.
	chunk := 1 + o.size/4
	size := 0
	if of := m.oracle[o.path()]; of != nil {
		size = of.data.size
	}
	got := m.ioBuf(o.worker, 0, size+chunk)[:0]
	for {
		var n int
		var err error
		if got, n, err = readOn(p, fd, got, chunk); err != nil {
			p.Close(fd)
			return nil, "", fmt.Errorf("read: %v", err)
		}
		if n == 0 {
			p.Close(fd)
			return got, "", nil
		}
	}
}

func textChunk(name string, o *op) string {
	return fmt.Sprintf("%s d%d/f%d chunk=%d", name, o.disk, o.slot, o.size)
}

// splitIovs carves total bytes into up to nvec iovec buffers of
// near-equal size (empty tails are dropped), worker w's I/O buffers 1
// on, so the scatter/gather paths see genuinely discontiguous memory
// rather than views of one array.
func (m *machine) splitIovs(w, total, nvec int) [][]byte {
	iovs := make([][]byte, 0, nvec)
	for i := 0; i < nvec && total > 0; i++ {
		n := total / (nvec - i)
		if n == 0 {
			n = 1
		}
		iovs = append(iovs, m.ioBuf(w, 1+i, n))
		total -= n
	}
	return iovs
}

// scatter tiles data, in order, over fresh iovecs.
func (m *machine) scatter(w int, data []byte, nvec int) [][]byte {
	iovs := m.splitIovs(w, len(data), nvec)
	for _, iov := range iovs {
		data = data[copy(iov, data):]
	}
	return iovs
}

// fetchReadv is fetchRead through the vectored path: the range is
// scattered across 2–4 independent iovecs in one crossing and the
// reassembled bytes must match the content oracle exactly — the iovec
// byte-conservation invariant (no gaps, overlaps, or reordering across
// segment boundaries). A partial-progress error latched on the
// descriptor is observed through PendingError and taints like a read
// error would.
func fetchReadv(m *machine, p *kernel.Proc, fd int, o *op) ([]byte, string, error) {
	if err := seekTo(p, fd, o.off); err != nil {
		return nil, "", err
	}
	iovs := m.splitIovs(o.worker, o.size, 2+int(o.pat)%3)
	n, err := p.Readv(fd, iovs)
	latched := p.PendingError(fd)
	p.Close(fd)
	if err != nil || latched != nil {
		return nil, "", fmt.Errorf("readv: err=%v latched=%v", err, latched)
	}
	got := m.ioBuf(o.worker, 0, o.size)[:0]
	for _, iov := range iovs {
		got = append(got, iov...)
	}
	return got[:n], fmt.Sprintf(" iovs=%d", len(iovs)), nil
}

// batch exercises aggregated submission. The pattern byte picks the
// flavor: a read batch (lseek + two reads, verified against the oracle
// like a read) or a write batch (lseek + two writes, optionally trailed
// by an in-batch fsync carrying doFsync's durability contract). Either
// way the batch-results invariant holds: Submit must return exactly one
// result per submitted op.
func batch() opFunc {
	read, write := rangeRead(false, fetchBatch), rangeWrite(storeBatch)
	return func(m *machine, p *kernel.Proc, o *op) {
		if int(o.pat)%3 == 0 {
			read(m, p, o)
		} else {
			write(m, p, o)
		}
	}
}

// submit runs lseek(o.off), one rw op per part and an optional fsync as
// one batch on fd, which it closes. It returns each part's byte count,
// the batch length and the first error any op reported.
func submit(m *machine, p *kernel.Proc, fd int, o *op, rw int, parts [][]byte, sync bool) (counts []int, nops int, err error) {
	ops := []kernel.BatchOp{{Code: kernel.BatchLseek, FD: fd, Off: o.off, Whence: kernel.SeekSet}}
	for _, part := range parts {
		ops = append(ops, kernel.BatchOp{Code: rw, FD: fd, Buf: part})
	}
	if sync {
		ops = append(ops, kernel.BatchOp{Code: kernel.BatchFsync, FD: fd})
	}
	res := p.Submit(ops)
	p.Close(fd)
	if len(res) != len(ops) {
		m.violate("batch-results-len", "submitted %d ops, got %d results", len(ops), len(res))
		return nil, 0, nil
	}
	for i, r := range res {
		if r.Err != nil && err == nil {
			err = r.Err
		}
		if ops[i].Code == rw {
			counts = append(counts, int(r.N))
		}
	}
	return counts, len(ops), err
}

func fetchBatch(m *machine, p *kernel.Proc, fd int, o *op) ([]byte, string, error) {
	bufs := m.splitIovs(o.worker, o.size, 2)
	counts, nops, err := submit(m, p, fd, o, kernel.BatchRead, bufs, false)
	if err != nil {
		return nil, "", fmt.Errorf("batch-read: %v", err)
	}
	got := m.ioBuf(o.worker, 0, o.size)[:0]
	for i, n := range counts {
		got = append(got, bufs[i][:n]...)
	}
	return got, fmt.Sprintf(" ops=%d", nops), nil
}

// rangeWrite builds a write op from its store.
func rangeWrite(store storeFunc) opFunc {
	return func(m *machine, p *kernel.Proc, o *op) {
		path := o.path()
		fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
		if err != nil {
			m.taintEnsure(path)
			m.opLog(o, "open: %v", err)
			return
		}
		data := pattern(m.ioBuf(o.worker, 0, o.size), o.off, o.pat)
		note, durable, err := store(m, p, fd, o, data)
		if m.violation != nil {
			return // raised inside the store, already reported
		}
		of := m.ensure(path)
		if !errors.As(err, new(skipped)) {
			// The open succeeded, so the name is durably on the platter
			// (ordered dirEnter); the store itself is delayed, so any durable
			// content snapshot from an earlier sync is stale from here on.
			of.created = true
			of.syncedOK = false
		}
		if err != nil {
			// Partial stores (ENOSPC on the tight volume, an injected fault
			// mid-transfer) leave the range unpredictable: some blocks
			// landed, some did not.
			of.tainted = true
			m.opLog(o, "%v", err)
			return
		}
		of.data.write(int(o.off), data)
		if durable {
			of.markDurable()
		}
		m.opLog(o, "ok n=%d%s", len(data), note)
	}
}

// markDurable is the contract under test: a successful sync makes this
// exact content durable, surviving any later crash byte-exact. A
// tainted file has no known content to promise. The snapshot shares the
// content's blocks: the next store copies the ones it touches.
func (of *ofile) markDurable() {
	if !of.tainted {
		of.data.share(&of.synced)
		of.syncedOK = true
	}
}

func storeWrite(m *machine, p *kernel.Proc, fd int, o *op, data []byte) (string, bool, error) {
	if err := seekTo(p, fd, o.off); err != nil {
		return "", false, err
	}
	n, err := p.Write(fd, data)
	p.Close(fd)
	if err != nil || n != len(data) {
		return "", false, fmt.Errorf("write: n=%d err=%v (tainted)", n, err)
	}
	return "", false, nil
}

// storeWritev is storeWrite through the vectored path: the patterned
// range is gathered from 2–4 independent iovecs in one crossing.
// Anything short of full-vector completion — an error, a latched
// partial-progress error, or a short count — taints like a partial
// write.
func storeWritev(m *machine, p *kernel.Proc, fd int, o *op, data []byte) (string, bool, error) {
	if err := seekTo(p, fd, o.off); err != nil {
		return "", false, err
	}
	iovs := m.scatter(o.worker, data, 2+int(o.pat)%3)
	n, err := p.Writev(fd, iovs)
	latched := p.PendingError(fd)
	p.Close(fd)
	if err != nil || latched != nil || n != len(data) {
		return "", false, fmt.Errorf("writev: n=%d err=%v latched=%v (tainted)", n, err, latched)
	}
	return fmt.Sprintf(" iovs=%d", len(iovs)), false, nil
}

// storeBatch: any op failing mid-batch (or a short write) leaves the
// range partially applied, like a partial plain write; an in-batch
// fsync that succeeded after both writes makes the content durable one
// crossing earlier than doFsync would.
func storeBatch(m *machine, p *kernel.Proc, fd int, o *op, data []byte) (string, bool, error) {
	sync := int(o.pat)%2 == 0
	counts, nops, err := submit(m, p, fd, o, kernel.BatchWrite, m.scatter(o.worker, data, 2), sync)
	n := 0
	for _, c := range counts {
		n += c
	}
	if err != nil || n != len(data) {
		return "", false, fmt.Errorf("batch-write: n=%d err=%v (tainted)", n, err)
	}
	return fmt.Sprintf(" ops=%d sync=%v", nops, sync), sync, nil
}

func (m *machine) doTrunc(p *kernel.Proc, o *op) {
	path := o.path()
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		m.taintEnsure(path)
		m.opLog(o, "open: %v", err)
		return
	}
	p.Close(fd)
	// Truncation resets the contents to a known state, clearing taint.
	// It is also durable: truncate writes the cleared inode
	// synchronously before freeing blocks, so after a crash the file is
	// exactly empty.
	of := m.ensure(path)
	of.data.release()
	of.synced.release()
	of.tainted, of.created, of.syncedOK = false, true, true
	m.opLog(o, "ok")
}

func (m *machine) doUnlink(p *kernel.Proc, o *op) {
	path := o.path()
	of := m.oracle[path]
	err := p.Unlink(path)
	switch {
	case err == nil:
		if of != nil {
			of.data.release()
			of.synced.release()
		}
		delete(m.oracle, path)
		m.opLog(o, "ok")
	case errors.Is(err, kernel.ErrNoEnt):
		m.absent(o, of, err)
	default:
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, "unlink: %v", err)
	}
}

func (m *machine) doFsync(p *kernel.Proc, o *op) {
	path := o.path()
	fd, err := p.Open(path, kernel.ORdWr)
	if err != nil {
		m.opLog(o, "open: %v", err)
		return
	}
	serr := p.Fsync(fd)
	p.Close(fd)
	of := m.ensure(path)
	if serr != nil {
		// A failed fsync flushed an unknown subset: current content and
		// the durable image are both unpredictable.
		of.tainted = true
		of.syncedOK = false
		m.opLog(o, "fsync: %v", serr)
		return
	}
	of.markDurable()
	m.opLog(o, "ok")
}

func textCopy(name string, o *op) string {
	return fmt.Sprintf("%s d%d/f%d -> d%d/f%d off=%d n=%d pat=%#02x", name, o.disk, o.slot, o.disk2, o.slot2, o.off, o.size, o.pat)
}

// doCopy is cp's loop over whole blocks: each block of the op's file
// that [o.off, o.off+o.size) touches is read into the worker's I/O
// buffer and written from it to the same offset of the destination, so
// the copyin may share the block the copyout read (buf.Cache.CopyIn).
// An odd pattern byte changes one byte of each block between its read
// and its write, which the copyin must see. Each read is verified
// against the source's oracle, and the destination's takes what each
// write stored.
func (m *machine) doCopy(p *kernel.Proc, o *op) {
	of, sfd, ok := m.openChecked(p, o)
	if !ok {
		return
	}
	dst := o.dst()
	dfd, err := p.Open(dst, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		p.Close(sfd)
		m.taintEnsure(dst)
		m.opLog(o, "open dst: %v", err)
		return
	}
	defer p.Close(sfd)
	defer p.Close(dfd)
	od := m.ensure(dst)
	od.created = true // the open made the name durable (ordered dirEnter)
	pos := o.off / blockSize * blockSize
	for _, fd := range []int{sfd, dfd} {
		if _, err := p.Lseek(fd, pos, kernel.SeekSet); err != nil {
			m.opLog(o, "lseek: %v", err)
			return
		}
	}
	known := of != nil && !of.tainted && m.checkable(o.disk)
	buf := m.ioBuf(o.worker, 0, blockSize)
	moved := 0
	for end := o.off + int64(o.size); pos < end; pos += blockSize {
		n, err := p.Read(sfd, buf)
		if err != nil {
			if of != nil {
				of.tainted = true
			}
			m.opLog(o, "read at %d: %v", pos, err)
			return
		}
		if known {
			want := min(max(of.data.size-int(pos), 0), blockSize)
			if n != want {
				m.violate("oracle-size", "copy %s off=%d returned %d bytes, oracle expects %d", o.path(), pos, n, want)
				return
			}
			if i := of.data.diff(int(pos), buf[:n]); i >= 0 {
				m.violate("oracle-content", "copy %s differs at byte %d: got %#02x, oracle %#02x",
					o.path(), int(pos)+i, buf[i], of.data.span(int(pos) + i)[0])
				return
			}
		}
		if n == 0 {
			break
		}
		if o.pat&1 != 0 {
			buf[int(o.pat)%n] ^= o.pat
		}
		od.syncedOK = false
		if w, err := p.Write(dfd, buf[:n]); err != nil || w != n {
			// Partly applied: an injected fault or ENOSPC mid-block.
			od.tainted = true
			m.opLog(o, "write at %d: %v", pos, err)
			return
		}
		od.data.write(int(pos), buf[:n])
		moved += n
	}
	m.opLog(o, "ok n=%d", moved)
}
