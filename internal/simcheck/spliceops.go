package simcheck

import (
	"fmt"

	"kdp/internal/dev"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
)

// The splice ops: file → file, block reader into aliasing writer (optionally
// interrupted by a signal), file → pipe and file → socket with a helper
// process draining the far end, and pipe → file with a helper feeding
// the near one.

func textSpliceFile(_ string, o *op) string {
	return fmt.Sprintf("splice d%d/f%d -> d%d/f%d", o.disk, o.slot, o.disk2, o.slot2)
}

func textSpliceSig(name string, o *op) string {
	return fmt.Sprintf("%s sig@%d", textSpliceFile(name, o), o.sigTicks)
}

func textSplicePipe(_ string, o *op) string {
	return fmt.Sprintf("splice d%d/f%d -> pipe", o.disk, o.slot)
}

func textPipeSplice(_ string, o *op) string {
	return fmt.Sprintf("splice pipe -> d%d/f%d n=%d", o.disk, o.slot, o.size)
}

func textSpliceSock(_ string, o *op) string {
	return fmt.Sprintf("splice d%d/f%d -> socket", o.disk, o.slot)
}

// drawSig draws the tick at which splice-sig's signal is posted.
func drawSig(r *sim.Rand, o *op) {
	o.sigTicks = 1 + r.Intn(15)
	drawDst(r, o)
}

// doSpliceFile runs the file → file pairing: splice(src → dst, EOF). For
// splice-sig (the row that draws sigTicks) a signal is posted to the
// caller mid-transfer, exercising the interrupt-drain path; the partial
// destination is tainted.
func (m *machine) doSpliceFile(p *kernel.Proc, o *op) {
	src, dst := o.path(), o.dst()
	sfd, err := p.Open(src, kernel.ORdOnly)
	if err != nil {
		m.opLog(o, "open src: %v", err)
		return
	}
	dfd, err := p.Open(dst, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		p.Close(sfd)
		m.taintEnsure(dst)
		m.opLog(o, "open dst: %v", err)
		return
	}
	var c kernel.Callout
	if o.sigTicks > 0 {
		c = m.K.Timeout(func() { m.K.Post(p, kernel.SIGIO) }, o.sigTicks)
	}
	n, serr := splice.Splice(p, sfd, dfd, splice.EOF)
	if o.sigTicks > 0 {
		m.K.Untimeout(c)
		p.DeliverSignals()
	}
	p.Close(sfd)
	p.Close(dfd)

	oso := m.oracle[src]
	odo := m.ensure(dst)
	// The destination name is durable (open succeeded); its content and
	// metadata were (possibly) rewritten with delayed metadata, so any
	// earlier fsync snapshot no longer matches the platter.
	odo.created = true
	odo.syncedOK = false
	srcKnown := oso != nil && !oso.tainted && m.checkable(o.disk)
	switch {
	case serr != nil:
		// Interrupted or failed: the destination prefix is whatever
		// drained before the stop — but nothing foreign.
		if srcKnown && !odo.tainted && !m.checkNoStale(p, o.worker, dst, &oso.data, &odo.data) {
			return
		}
		odo.tainted = true
		m.opLog(o, "moved=%d err=%v (dst tainted)", n, serr)
	case !srcKnown:
		if n > 0 {
			odo.tainted = true
		}
		m.opLog(o, "moved=%d (src unchecked, dst tainted)", n)
	default:
		if n != int64(oso.data.size) && m.checkable(o.disk2) {
			m.violate("oracle-splice", "%s -> %s moved %d bytes, oracle expects %d", src, dst, n, oso.data.size)
			return
		}
		// Splice overwrites the prefix, block by block; a longer
		// destination keeps its tail (Extend never shrinks), a shorter
		// one grows to n.
		odo.data.overlay(&oso.data, min(int(n), oso.data.size))
		odo.data.write(int(n), nil)
		m.opLog(o, "ok moved=%d", n)
	}
}

// checkNoStale is the oracle's rule for a splice into a file that ended
// short (oracle-stale): which of its blocks were written is not
// predictable, but every byte of the destination is the new payload's,
// the one the file held before, or zero — never anything else. A block
// the transfer allocated and did not write would otherwise surface its
// previous owner's data. It reports false after raising the violation;
// a faulted volume, or a read-back (into w's I/O buffer) that itself
// fails, is not judged.
func (m *machine) checkNoStale(p *kernel.Proc, w int, path string, fresh, prev *image) bool {
	d := diskOf(path)
	if !m.checkable(d) {
		return true
	}
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		return true
	}
	got := m.ioBuf(w, 0, max(fresh.size, prev.size)+blockSize+1)
	n, err := p.Read(fd, got)
	p.Close(fd)
	if err != nil || !m.checkable(d) {
		return true
	}
	// Past its size an image reads as zero, which the rule allows anyway.
	for i := 0; i < n; {
		f, q := fresh.span(i), prev.span(i)
		for j, b := range got[i:min(n, i+len(f))] {
			if b == 0 || b == f[j] || b == q[j] {
				continue
			}
			m.violate("oracle-stale", "%s byte %d (block %d) is %#02x after a short splice: not the payload's, the file's previous, or zero",
				path, i+j, (i+j)/blockSize, b)
			return false
		}
		i += len(f)
	}
	return true
}

// spliceSrc opens the op's file as the source of a splice into a byte
// sink and sizes the transfer: the whole file, up to limit. ok is false
// when there is nothing to move (logged, descriptor closed).
func (m *machine) spliceSrc(p *kernel.Proc, o *op, limit int64) (sfd int, n int64, ok bool) {
	sfd, err := p.Open(o.path(), kernel.ORdOnly)
	if err != nil {
		m.opLog(o, "open src: %v", err)
		return 0, 0, false
	}
	n, err = p.FileSize(sfd)
	if err != nil || n == 0 {
		p.Close(sfd)
		m.opLog(o, "empty src (size=%d err=%v)", n, err)
		return 0, 0, false
	}
	if n > limit {
		n = limit
	}
	return sfd, n, true
}

// A drain is the helper at the far end of a splice into a byte sink: a
// process that reads the sink until n bytes have arrived, or EOF, or an
// error.
type drain struct {
	*gate
	got []byte
}

// startDrain spawns the reader on the sink's read side. bufSize is its
// read size: datagram reads truncate to the buffer (recvfrom
// semantics), so a socket's must cover the largest datagram any path
// sends. Each read lands in place, past the bytes already drained, in
// worker w's I/O buffer: the op awaits the drain before it returns.
func (m *machine) startDrain(w int, name string, sink kernel.FileOps, bufSize int, n int64) *drain {
	d := &drain{got: m.ioBuf(w, 0, int(n)+bufSize)[:0]}
	d.gate = m.helper(name, func(rp *kernel.Proc) {
		fd := rp.InstallFile(sink, kernel.ORdOnly)
		for int64(len(d.got)) < n {
			var r int
			var err error
			if d.got, r, err = readOn(rp, fd, d.got, bufSize); err != nil || r == 0 {
				break
			}
		}
	})
	return d
}

// spliceInto moves n bytes from sfd into the sink behind wfd. If the
// splice stops short it releases the drain by pushing filler for the
// bytes that never came.
func spliceInto(p *kernel.Proc, sfd, wfd int, n int64) (moved int64, err error) {
	moved, err = splice.Splice(p, sfd, wfd, n)
	if err != nil && moved < n {
		p.Write(wfd, make([]byte, n-moved))
	}
	return moved, err
}

// checkDrained verifies a splice into a byte sink against the oracle:
// n bytes moved, and the drain saw exactly the file's first n. sink is
// what the messages call the far end. lossy means a fault perturbed the
// sink's delivery (a dropped datagram shortens got, a duplicate
// lengthens it, a reorder scrambles it): only the splice-side
// accounting is still exact.
func (m *machine) checkDrained(o *op, sink string, moved, n int64, serr error, got []byte, lossy bool) {
	src := o.path()
	of := m.oracle[src]
	switch {
	case serr != nil || of == nil || of.tainted || !m.checkable(o.disk):
		m.opLog(o, "moved=%d err=%v (unchecked)", moved, serr)
	case lossy && moved != n:
		m.violate("oracle-drain", "%s -> %s moved %d, want %d (net fault perturbs delivery, not the splice)", src, sink, moved, n)
	case lossy:
		m.opLog(o, "moved=%d drained=%d (net faulted, delivery unchecked)", moved, len(got))
	case moved != n || int64(len(got)) != n:
		m.violate("oracle-drain", "%s -> %s moved %d, drained %d, want %d", src, sink, moved, len(got), n)
	default:
		if i := of.data.diff(0, got); i >= 0 {
			m.violate("oracle-drain-content", "%s -> %s differs at byte %d: got %#02x, oracle %#02x", src, sink, i, got[i], of.data.span(i)[0])
			return
		}
		m.opLog(o, "ok moved=%d", moved)
	}
}

// doSplicePipe splices a file into a fresh pipe while a spawned reader
// drains it, verifying the drained bytes against the oracle.
func (m *machine) doSplicePipe(p *kernel.Proc, o *op) {
	sfd, n, ok := m.spliceSrc(p, o, 32<<10)
	if !ok {
		return
	}
	pipe := dev.NewPipe(m.K, "", pipeCap)
	pfd := p.InstallFile(pipe, kernel.OWrOnly)
	d := m.startDrain(o.worker, fmt.Sprintf("drain%d", o.idx), pipe, 4096, n)
	moved, serr := spliceInto(p, sfd, pfd, n)
	d.await(p)
	p.Close(sfd)
	p.Close(pfd)
	m.checkDrained(o, "pipe", moved, n, serr, d.got, false)
}

// doSpliceSock splices a file into a datagram socket while a spawned
// reader drains the peer socket.
func (m *machine) doSpliceSock(p *kernel.Proc, o *op) {
	sfd, n, ok := m.spliceSrc(p, o, maxStreamIO)
	if !ok {
		return
	}
	// Fresh port pair per op: sockets close with their procs' fd tables.
	portA, portB := 1000+2*o.idx, 1001+2*o.idx
	sa, err := m.net.NewSocket(portA)
	var sb *socket.Socket
	if err == nil {
		sb, err = m.net.NewSocket(portB)
	}
	if err != nil {
		p.Close(sfd)
		m.opLog(o, "socket: %v", err)
		return
	}
	sa.Connect(portB)
	afd := p.InstallFile(sa, kernel.OWrOnly)
	d := m.startDrain(o.worker, fmt.Sprintf("recv%d", o.idx), sb, 32<<10, n)
	moved, serr := spliceInto(p, sfd, afd, n)
	// Close the sending socket before waiting for the reader: the close
	// queues an EOF marker, which is zero-length and therefore immune to
	// the datagram fault sites (drop/dup/reorder act on data packets
	// only), so the reader terminates even when an armed fault ate one
	// of the datagrams it is counting on.
	p.Close(afd)
	d.await(p)
	p.Close(sfd)
	m.checkDrained(o, "socket", moved, n, serr, d.got, m.netFaulted)
}

// doPipeSplice splices from a pipe into a file (the source→file staging
// engine) while a spawned writer feeds the pipe a known pattern.
func (m *machine) doPipeSplice(p *kernel.Proc, o *op) {
	dst := o.path()
	dfd, err := p.Open(dst, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		m.taintEnsure(dst)
		m.opLog(o, "open dst: %v", err)
		return
	}
	n := int64(o.size)
	pipe := dev.NewPipe(m.K, "", pipeCap)
	pfd := p.InstallFile(pipe, kernel.ORdOnly)

	// The feeder is not awaited, but the pipe's close below aborts a
	// write the splice left short: no byte it writes once the op is over
	// reaches a reader.
	want := pattern(m.ioBuf(o.worker, 1, o.size), 0, o.pat)
	m.K.Spawn(fmt.Sprintf("feed%d", o.idx), func(wp *kernel.Proc) {
		wfd := wp.InstallFile(pipe, kernel.OWrOnly)
		wp.Write(wfd, want)
	})

	moved, serr := splice.Splice(p, pfd, dfd, n)
	p.Close(pfd)
	p.Close(dfd)

	// The file was truncated at open: its image is the payload, which a
	// short splice then taints.
	of := m.ensure(dst)
	of.created = true
	of.syncedOK = false
	of.data.release()
	of.data.write(0, want)
	if serr != nil || moved != n {
		if !m.checkNoStale(p, o.worker, dst, &of.data, &image{}) {
			return
		}
		of.tainted = true
		m.opLog(o, "moved=%d err=%v (tainted)", moved, serr)
		return
	}
	of.tainted = false
	m.opLog(o, "ok moved=%d", moved)
}
