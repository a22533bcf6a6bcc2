package kernel

import "kdp/internal/trace"

// Aggregated system-call submission in the AnyCall lineage: a process
// packs N heterogeneous operations into one batch and crosses the
// user/kernel boundary once for all of them. Each operation still pays
// its own data-copy and device costs — the saving is the (N-1) trap +
// dispatch + return crossings, the fixed overhead the paper measures
// dominating small-block I/O. Operations execute sequentially in
// submission order, so program order per descriptor is preserved
// exactly as if the calls had been issued one at a time.

// Batch op codes.
const (
	BatchRead  = iota // read Buf at the fd's offset; N = bytes read
	BatchWrite        // write Buf at the fd's offset; N = bytes written
	BatchLseek        // reposition to Off/Whence; N = resulting offset
	BatchFsync        // flush the file; N = 0
)

// BatchOp is one operation in an aggregated submission.
type BatchOp struct {
	Code   int    // BatchRead, BatchWrite, BatchLseek, BatchFsync
	FD     int    // descriptor the op applies to
	Buf    []byte // read/write payload
	Off    int64  // lseek offset
	Whence int    // lseek whence
}

// BatchResult is the per-op outcome of a Submit: the count (bytes moved
// or resulting offset) and the op's own error. One op failing does not
// abort the batch; later ops still run, as AnyCall's per-entry status
// words allow. The exception is a signal: an op interrupted by ErrIntr
// stops the batch at that op boundary, and every op after it reports
// ErrIntr without having run — so a partial batch is always a prefix,
// and program order per descriptor still holds.
type BatchResult struct {
	N   int64
	Err error
}

// Submit carries the whole batch across the user/kernel boundary in a
// single crossing: one trap and one syscall-enter/exit pair regardless
// of len(ops). The result slice always has exactly one entry per op.
// A signal breaking an op's sleep stops the batch there: completed
// slots keep their results, the interrupted op reports ErrIntr (with
// any partial count), and the remaining ops are not started — running
// them after the interruption would reorder them past the signal
// handler, which a sequence of single syscalls could never do.
func (p *Proc) Submit(ops []BatchOp) []BatchResult {
	defer p.SyscallExit(p.SyscallEnter("batch"))
	res := make([]BatchResult, len(ops))
	for i := range ops {
		res[i] = p.batchOne(&ops[i])
		if res[i].Err == ErrIntr {
			for j := i + 1; j < len(ops); j++ {
				res[j] = BatchResult{Err: ErrIntr}
			}
			break
		}
	}
	if len(ops) > 0 {
		p.k.TraceEmit(trace.KindKernelBatch, p.pid,
			int64(len(ops)), int64(len(ops)-1), "")
	}
	return res
}

// batchOne dispatches one batched op to the body of the system call it
// names. The bodies, not the exported calls: the crossing was paid once
// by Submit, and the trace checker's per-pid syscall nesting forbids
// unpaired inner events.
func (p *Proc) batchOne(op *BatchOp) BatchResult {
	var n int
	var err error
	switch op.Code {
	case BatchRead:
		n, err = p.read(op.FD, op.Buf)
	case BatchWrite:
		n, err = p.write(op.FD, op.Buf)
	case BatchLseek:
		off, err := p.lseek(op.FD, op.Off, op.Whence)
		return BatchResult{N: off, Err: err}
	case BatchFsync:
		err = p.fsync(op.FD)
	default:
		err = ErrInval
	}
	return BatchResult{N: int64(n), Err: err}
}
