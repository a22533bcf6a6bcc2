package kernel

import "kdp/internal/trace"

// Vectored I/O in the 4.3BSD readv/writev lineage. A process hands the
// kernel an ordered iovec array and crosses the user/kernel boundary
// once for the whole vector: one trap, one syscall-enter/exit pair, and
// one copyin/copyout setup charge, with the per-byte copy rate applied
// to the total moved. Against one read/write per segment that saves
// (len(iovs)-1) crossings and as many fixed per-copy setups — the same
// overhead the paper's splice removes for whole transfers, amortized
// here for paths that still move data through user space.
//
// Error semantics follow 4.3BSD: once any bytes have transferred, the
// call reports that progress and a subsequent failure is latched on the
// descriptor, surfacing on the next operation. An error before any
// progress is returned immediately.

// Uio describes one scatter/gather transfer — an ordered iovec array,
// after 4.3BSD's struct uio. The helpers move bytes between the vector
// and contiguous kernel buffers; they model data movement only and
// charge nothing (callers charge through the Config cost model).
type Uio struct {
	Iovs [][]byte
	at   int // bytes of Iovs[0] the last Scatter filled
}

// Total returns the summed length of the iovec array.
func (u Uio) Total() int {
	n := 0
	for _, iov := range u.Iovs {
		n += len(iov)
	}
	return n
}

// Gather concatenates the iovecs into one contiguous buffer (the mbuf
// chain a sendv builds, or the staging run a coalesced write admits).
func (u Uio) Gather() []byte {
	out := make([]byte, 0, u.Total())
	for _, iov := range u.Iovs {
		out = append(out, iov...)
	}
	return out
}

// Scatter copies b across the iovecs in order, from where the last
// Scatter into u stopped, and returns the number of bytes placed; bytes
// beyond the vector's total length are discarded (datagram truncation,
// as recvfrom does). The iovecs' bytes change, the array does not.
func (u *Uio) Scatter(b []byte) int {
	n := 0
	for len(b) > 0 && len(u.Iovs) > 0 {
		c := copy(u.Iovs[0][u.at:], b)
		b, n, u.at = b[c:], n+c, u.at+c
		if u.at == len(u.Iovs[0]) {
			u.Iovs, u.at = u.Iovs[1:], 0
		}
	}
	return n
}

// ReadvOps is implemented by file objects with a native scatter-read:
// one object-level operation fills the whole vector (a socket receiving
// one datagram across several iovecs). Objects without it are driven
// one iovec at a time inside the single crossing.
type ReadvOps interface {
	Readv(ctx Ctx, iovs [][]byte, off int64) (int, error)
}

// WritevOps is implemented by file objects with a native gather-write:
// one object-level operation consumes the whole vector (a socket
// building one datagram, a stream connection coalescing one admission).
type WritevOps interface {
	Writev(ctx Ctx, iovs [][]byte, off int64) (int, error)
}

// Readv reads into the iovecs in order, crossing the user/kernel
// boundary once. The copyout setup is charged once for the vector and
// the byte rate over the total moved. Returns the bytes placed; an
// error after partial progress is latched on the descriptor for the
// next call (4.3BSD readv semantics).
func (p *Proc) Readv(fd int, iovs [][]byte) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("readv"))
	f, ctx, err := p.ioFD(fd, OWrOnly)
	if err != nil {
		return 0, err
	}
	total := 0
	if rv, ok := f.ops.(ReadvOps); ok {
		total, err = rv.Readv(ctx, iovs, f.offset)
	} else {
		for _, iov := range iovs {
			if len(iov) == 0 {
				continue
			}
			var n int
			n, err = f.ops.Read(ctx, iov, f.offset+int64(total))
			total += n
			if err != nil || n < len(iov) {
				break // error, EOF, or a would-block boundary
			}
		}
	}
	if total > 0 {
		p.UseK(p.k.cfg.CopyCost(total)) // one copyout setup for the vector
	}
	return p.vecDone(f, len(iovs), total, err)
}

// vecDone is the epilogue of a vectored call that moved total bytes in
// one crossing carrying ops operations: advance the offset, latch an
// error that followed partial progress for the descriptor's next call,
// and record the aggregated crossing — (ops-1) fewer traps than issuing
// the operations one syscall at a time.
func (p *Proc) vecDone(f *FDesc, ops, total int, err error) (int, error) {
	if total > 0 {
		f.offset += int64(total)
		f.latched, err = err, nil
		if ops > 1 {
			p.k.TraceEmit(trace.KindKernelBatch, p.pid, int64(ops), int64(ops-1), "")
		}
	}
	return total, err
}

// Writev writes the iovecs in order, crossing the user/kernel boundary
// once. The copyin setup is charged once for the vector: up front for
// its whole length, or, nonblocking, afterwards for the bytes the object
// actually took. Returns the bytes consumed; an error after partial
// progress is latched on the descriptor for the next call (4.3BSD writev
// semantics).
func (p *Proc) Writev(fd int, iovs [][]byte) (int, error) {
	defer p.SyscallExit(p.SyscallEnter("writev"))
	f, ctx, err := p.ioFD(fd, ORdOnly)
	if err != nil {
		return 0, err
	}
	_, nb := ctx.(nbCtx)
	if n := (Uio{Iovs: iovs}).Total(); !nb && n > 0 {
		p.UseK(p.k.cfg.CopyCost(n))
	}
	total, err := p.writevInner(f, ctx, iovs)
	if nb && total > 0 {
		p.UseK(p.k.cfg.CopyCost(total))
	}
	return p.vecDone(f, len(iovs), total, err)
}

// writevInner moves the vector into the object: one native gather-write
// when the object supports it, otherwise one ops.Write per iovec inside
// the single crossing already paid by the caller.
func (p *Proc) writevInner(f *FDesc, ctx Ctx, iovs [][]byte) (int, error) {
	if wv, ok := f.ops.(WritevOps); ok {
		return wv.Writev(ctx, iovs, f.offset)
	}
	total := 0
	for _, iov := range iovs {
		if len(iov) == 0 {
			continue
		}
		n, err := f.ops.Write(ctx, iov, f.offset+int64(total))
		total += n
		if err != nil {
			return total, err
		}
		if n < len(iov) {
			break // object admitted only part (nonblocking boundary)
		}
	}
	return total, nil
}
