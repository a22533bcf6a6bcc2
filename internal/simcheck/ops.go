package simcheck

import (
	"errors"
	"fmt"

	"kdp/internal/dev"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/splice"
	"kdp/internal/stream"
)

// The op vocabulary. Every op is self-contained — it opens what it
// needs, acts, and closes — so any subset of a generated sequence is
// itself a valid workload. That property is what makes seed
// minimization by op-sequence bisection sound.
type opKind int

const (
	opWrite opKind = iota // create/extend/overwrite a byte range
	opRead                // read a range and verify against the oracle
	opTrunc               // open with O_TRUNC
	opUnlink
	opFsync
	opSpliceFF   // splice file → file (block engine)
	opSplicePipe // splice file → pipe, concurrent reader drains
	opPipeSplice // concurrent writer fills pipe, splice pipe → file
	opSpliceSock // splice file → socket, concurrent reader drains
	opSpliceSig  // synchronous splice interrupted by a posted signal
	opFault      // arm a one-shot disk fault on either volume
	opTraceSnap  // snapshot the trace counters into the event log
	opStreamConn // stream connect/accept handshake + close on the lossy net
	opStreamXfer // stream transfer over the lossy net, byte-exact delivery
	opPollWait   // poll on a pipe fed by a delayed writer; ready ⇒ read can't block
	opEventServe // single-process poll event loop serves stream clients on the lossy net
	opSeqRead    // whole-file sequential scan; drives the adaptive readahead engine
	opMmapRead   // map the file shared read-only, fault it in, verify against the oracle
	opMmapWrite  // map shared read/write, store a pattern, munmap pages it out
	opMsync      // mmap-write followed by msync: the mapped-file durability contract
	opCrash      // power cut: discard volatile state, repair, remount (crash sweep only)
	opReadv      // scatter-read a range through readv, verify iovec byte conservation
	opWritev     // gather-write a patterned range through writev
	opBatch      // aggregated Submit: lseek+writes(+fsync) or lseek+reads in one crossing
)

// Generation sizes. Files stay under 12 direct blocks (96KB) so the
// content oracle never depends on indirect-block allocation order.
const (
	maxOff      = 64 << 10
	maxIO       = 16 << 10
	maxStreamIO = 24 << 10
	pipeCap     = 16 << 10
)

type op struct {
	idx    int
	worker int
	kind   opKind

	disk, slot   int // primary file
	disk2, slot2 int // splice destination
	off          int64
	size         int
	pat          byte
	sigTicks     int          // opSpliceSig: delay before posting the signal
	faultDisk    int          // opFault: which volume absorbs the fault
	faultBlk     int64        // opFault: physical block on the faulted volume
	faultRead    bool         // opFault: fail reads (else writes)
	think        sim.Duration // user-mode compute after the op
}

func (o *op) describe() string {
	switch o.kind {
	case opWrite:
		return fmt.Sprintf("write d%d/f%d off=%d n=%d pat=%#02x", o.disk, o.slot, o.off, o.size, o.pat)
	case opRead:
		return fmt.Sprintf("read d%d/f%d off=%d n=%d", o.disk, o.slot, o.off, o.size)
	case opSeqRead:
		return fmt.Sprintf("seq-read d%d/f%d chunk=%d", o.disk, o.slot, o.size)
	case opMmapRead:
		return fmt.Sprintf("mmap-read d%d/f%d", o.disk, o.slot)
	case opMmapWrite:
		return fmt.Sprintf("mmap-write d%d/f%d off=%d n=%d pat=%#02x", o.disk, o.slot, o.off, o.size, o.pat)
	case opMsync:
		return fmt.Sprintf("msync d%d/f%d off=%d n=%d pat=%#02x", o.disk, o.slot, o.off, o.size, o.pat)
	case opTrunc:
		return fmt.Sprintf("trunc d%d/f%d", o.disk, o.slot)
	case opUnlink:
		return fmt.Sprintf("unlink d%d/f%d", o.disk, o.slot)
	case opFsync:
		return fmt.Sprintf("fsync d%d/f%d", o.disk, o.slot)
	case opSpliceFF:
		return fmt.Sprintf("splice d%d/f%d -> d%d/f%d", o.disk, o.slot, o.disk2, o.slot2)
	case opSplicePipe:
		return fmt.Sprintf("splice d%d/f%d -> pipe", o.disk, o.slot)
	case opPipeSplice:
		return fmt.Sprintf("splice pipe -> d%d/f%d n=%d", o.disk, o.slot, o.size)
	case opSpliceSock:
		return fmt.Sprintf("splice d%d/f%d -> socket", o.disk, o.slot)
	case opSpliceSig:
		return fmt.Sprintf("splice d%d/f%d -> d%d/f%d sig@%d", o.disk, o.slot, o.disk2, o.slot2, o.sigTicks)
	case opFault:
		mode := "write"
		if o.faultRead {
			mode = "read"
		}
		return fmt.Sprintf("fault d%d blk=%d on %s", o.faultDisk, o.faultBlk, mode)
	case opCrash:
		return "crash-recover"
	case opTraceSnap:
		return "trace-snapshot"
	case opStreamConn:
		return "stream-connect"
	case opStreamXfer:
		return fmt.Sprintf("stream-transfer n=%d pat=%#02x", o.size, o.pat)
	case opPollWait:
		return fmt.Sprintf("poll-wait n=%d delay=%d pat=%#02x", o.size, o.sigTicks, o.pat)
	case opEventServe:
		return fmt.Sprintf("event-serve n=%d pat=%#02x", o.size, o.pat)
	case opReadv:
		return fmt.Sprintf("readv d%d/f%d off=%d n=%d", o.disk, o.slot, o.off, o.size)
	case opWritev:
		return fmt.Sprintf("writev d%d/f%d off=%d n=%d pat=%#02x", o.disk, o.slot, o.off, o.size, o.pat)
	case opBatch:
		return fmt.Sprintf("batch-submit d%d/f%d off=%d n=%d pat=%#02x", o.disk, o.slot, o.off, o.size, o.pat)
	default:
		return fmt.Sprintf("op?%d", int(o.kind))
	}
}

// genOps derives the full op sequence from the seed. Generation is the
// only place randomness enters the harness; execution is a pure
// function of this list.
func genOps(cfg Config) []*op {
	r := sim.NewRand(cfg.Seed)
	ops := make([]*op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		o := &op{
			idx:    i,
			worker: r.Intn(cfg.Workers),
			disk:   r.Intn(2),
			slot:   r.Intn(slotsPerWk),
			off:    r.Int63n(maxOff),
			size:   1 + r.Intn(maxIO),
			pat:    byte(1 + r.Intn(255)),
			think:  sim.Duration(r.Intn(3)) * 700 * sim.Microsecond,
		}
		// Weighted kind selection: plain file traffic dominates; mapped
		// I/O, splice variants, readiness multiplexing, and fault/signal
		// events season the mix.
		switch w := r.Intn(100); {
		case w < 13:
			o.kind = opWrite
		case w < 18:
			o.kind = opWritev
		case w < 24:
			o.kind = opRead
		case w < 28:
			o.kind = opReadv
		case w < 33:
			o.kind = opSeqRead
		case w < 37:
			o.kind = opTrunc
		case w < 41:
			o.kind = opUnlink
		case w < 45:
			o.kind = opFsync
		case w < 49:
			o.kind = opMmapRead
		case w < 53:
			o.kind = opMmapWrite
		case w < 56:
			o.kind = opMsync
		case w < 61:
			o.kind = opSpliceFF
		case w < 64:
			o.kind = opBatch
		case w < 68:
			o.kind = opSplicePipe
		case w < 72:
			o.kind = opPipeSplice
			o.size = 1 + r.Intn(maxStreamIO)
		case w < 76:
			o.kind = opSpliceSock
		case w < 79:
			o.kind = opSpliceSig
			o.sigTicks = 1 + r.Intn(15)
		case w < 81:
			o.kind = opTraceSnap
		case w < 84:
			o.kind = opFault
			o.faultDisk = r.Intn(2)
			if o.faultDisk == 0 {
				o.faultBlk = r.Int63n(d0Blocks)
			} else {
				o.faultBlk = r.Int63n(d1Blocks)
			}
			o.faultRead = r.Intn(2) == 0
		case w < 87:
			o.kind = opStreamConn
		case w < 90:
			o.kind = opPollWait
			o.sigTicks = 1 + r.Intn(10)
			o.size = 1 + r.Intn(4<<10)
		case w < 93:
			o.kind = opEventServe
			o.size = 1 + r.Intn(maxStreamIO)
		default:
			o.kind = opStreamXfer
			o.size = 1 + r.Intn(maxStreamIO)
		}
		if o.kind == opSpliceFF || o.kind == opSpliceSig {
			o.disk2 = r.Intn(2)
			o.slot2 = r.Intn(slotsPerWk)
			if o.disk2 == o.disk && o.slot2 == o.slot {
				o.slot2 = (o.slot2 + 1) % slotsPerWk
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// path names worker w's file in slot s on the given volume. Workers own
// disjoint file sets, so each file's oracle entry is updated by exactly
// one op stream, in that stream's order.
func (m *machine) path(w, disk, slot int) string {
	return fmt.Sprintf("/d%d/w%df%d", disk, w, slot)
}

// fillPattern writes the position-dependent test pattern: recognizable,
// cheap, and different for every (pat, offset).
func fillPattern(dst []byte, off int64, pat byte) {
	for i := range dst {
		dst[i] = pat ^ byte(off+int64(i))
	}
}

// worker executes its share of the op sequence.
func (m *machine) worker(p *kernel.Proc, w int, ops []*op) {
	defer func() {
		m.workersLeft--
		m.k.Wakeup(&m.workersLeft)
	}()
	for _, o := range ops {
		if m.violation != nil {
			break
		}
		m.curOp = fmt.Sprintf("op %d (w%d %s)", o.idx, w, o.describe())
		m.execOp(p, w, o)
		m.opsDone++
		// Fault site: the machine can lose power at any op boundary. Only
		// single-worker boundaries are eligible (a sibling mid-op would
		// break doCrash's quiescence contract), and only while no disk
		// defect is armed (an opFault-injected defect could have made a
		// create non-durable, voiding the durability oracle). Both gates
		// are pure functions of the run so far, so the census and armed
		// runs count identically.
		if m.cfg.Workers == 1 && o.kind != opCrash && !m.faulted[0] && !m.faulted[1] &&
			m.k.Faults().Hit(SiteCrashBoundary, int64(o.idx)) {
			m.logf("op %d w%d: crash-boundary fault fired", o.idx, w)
			m.doCrash(p, w, o)
		}
		if m.cfg.Damage != "" && !m.damaged && m.opsDone >= m.cfg.DamageAfter {
			m.damaged = true
			m.cache.Damage(m.cfg.Damage)
			m.logf("op %d: damaged buffer cache (%s)", o.idx, m.cfg.Damage)
			// Check synchronously: the corruption must be caught before
			// this worker's continuation can trip over it (the probe only
			// runs at the next scheduling boundary).
			m.probe()
		}
		if o.think > 0 {
			p.Use(o.think, false)
		}
	}
}

func (m *machine) execOp(p *kernel.Proc, w int, o *op) {
	switch o.kind {
	case opWrite:
		m.doWrite(p, w, o)
	case opRead:
		m.doRead(p, w, o)
	case opSeqRead:
		m.doSeqRead(p, w, o)
	case opMmapRead:
		m.doMmapRead(p, w, o)
	case opMmapWrite:
		m.doMmapWrite(p, w, o)
	case opMsync:
		m.doMsync(p, w, o)
	case opTrunc:
		m.doTrunc(p, w, o)
	case opUnlink:
		m.doUnlink(p, w, o)
	case opFsync:
		m.doFsync(p, w, o)
	case opSpliceFF:
		m.doSpliceFF(p, w, o, false)
	case opSpliceSig:
		m.doSpliceFF(p, w, o, true)
	case opSplicePipe:
		m.doSplicePipe(p, w, o)
	case opPipeSplice:
		m.doPipeSplice(p, w, o)
	case opSpliceSock:
		m.doSpliceSock(p, w, o)
	case opFault:
		m.armBlockFault(o.faultDisk, o.faultBlk, o.faultRead)
		m.logf("op %d w%d %s", o.idx, w, o.describe())
	case opTraceSnap:
		m.doTraceSnap(o, w)
	case opStreamConn:
		m.doStreamConn(p, w, o)
	case opStreamXfer:
		m.doStreamXfer(p, w, o)
	case opPollWait:
		m.doPollWait(p, w, o)
	case opEventServe:
		m.doEventServe(p, w, o)
	case opReadv:
		m.doReadv(p, w, o)
	case opWritev:
		m.doWritev(p, w, o)
	case opBatch:
		m.doBatch(p, w, o)
	case opCrash:
		m.doCrash(p, w, o)
	}
}

// doTraceSnap folds the current counter snapshot into the event log:
// the snapshot is a pure function of the event stream so far, so replay
// divergence in any counter shows up as a digest mismatch, and the
// mid-run aggregator/stream cross-check runs under live load.
func (m *machine) doTraceSnap(o *op, w int) {
	if err := m.tchk.CheckMetrics(m.tr.Metrics()); err != nil {
		m.fail(err)
		return
	}
	snap := m.tr.Metrics().Snapshot()
	var sum uint64 = 14695981039346656037
	for _, c := range snap {
		for i := 0; i < len(c.Name); i++ {
			sum ^= uint64(c.Name[i])
			sum *= 1099511628211
		}
		sum ^= uint64(c.Value)
		sum *= 1099511628211
	}
	m.opLog(o, w, "counters=%d events=%d sum=%016x", len(snap), m.tr.Metrics().Events(), sum)
}

func (m *machine) opLog(o *op, w int, format string, args ...any) {
	m.logf("op %d w%d %s: %s t=%v", o.idx, w, o.describe(), fmt.Sprintf(format, args...), m.k.Now())
}

func (m *machine) doWrite(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		m.taintEnsure(path)
		m.opLog(o, w, "open: %v", err)
		return
	}
	data := make([]byte, o.size)
	fillPattern(data, o.off, o.pat)
	if _, err := p.Lseek(fd, o.off, kernel.SeekSet); err != nil {
		p.Close(fd)
		m.taintEnsure(path)
		m.opLog(o, w, "lseek: %v", err)
		return
	}
	n, werr := p.Write(fd, data)
	p.Close(fd)
	of := m.ensure(path)
	// The open succeeded, so the name is durably on the platter (ordered
	// dirEnter); the write itself is delayed, so any durable content
	// snapshot from an earlier fsync is stale from here on.
	of.created = true
	of.syncedOK = false
	if werr != nil || n != len(data) {
		// Partial writes (ENOSPC on the tight volume) leave the tail
		// unpredictable: some blocks landed, some did not.
		of.tainted = true
		m.opLog(o, w, "write: n=%d err=%v (tainted)", n, werr)
		return
	}
	end := o.off + int64(n)
	if int64(len(of.data)) < end {
		of.data = append(of.data, make([]byte, end-int64(len(of.data)))...)
	}
	copy(of.data[o.off:end], data)
	m.opLog(o, w, "ok n=%d", n)
}

func (m *machine) doRead(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	of := m.oracle[path]
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		if errors.Is(err, kernel.ErrNoEnt) {
			if of != nil && !of.tainted && m.checkable(o.disk) {
				m.fail(fmt.Errorf("oracle-exists: open %s: %v, but oracle has %d bytes", path, err, len(of.data)))
				return
			}
			m.opLog(o, w, "absent")
			return
		}
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "open: %v", err)
		return
	}
	if of == nil && m.checkable(o.disk) {
		p.Close(fd)
		m.fail(fmt.Errorf("oracle-absent: %s opened but the oracle says it was never created", path))
		return
	}
	data := make([]byte, o.size)
	if _, err := p.Lseek(fd, o.off, kernel.SeekSet); err != nil {
		p.Close(fd)
		m.opLog(o, w, "lseek: %v", err)
		return
	}
	n, rerr := p.Read(fd, data)
	p.Close(fd)
	if rerr != nil {
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "read: %v", rerr)
		return
	}
	if of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "n=%d (unchecked)", n)
		return
	}
	want := 0
	if o.off < int64(len(of.data)) {
		want = len(of.data) - int(o.off)
		if want > o.size {
			want = o.size
		}
	}
	if n != want {
		m.fail(fmt.Errorf("oracle-size: read %s off=%d returned %d bytes, oracle expects %d", path, o.off, n, want))
		return
	}
	if n == 0 {
		m.opLog(o, w, "ok n=0 (past eof)")
		return
	}
	if i := firstDiff(data[:n], of.data[o.off:o.off+int64(n)]); i >= 0 {
		m.fail(fmt.Errorf("oracle-content: %s differs at byte %d: disk %#02x, oracle %#02x",
			path, o.off+int64(i), data[i], of.data[o.off+int64(i)]))
		return
	}
	m.opLog(o, w, "ok n=%d", n)
}

// doSeqRead scans the whole file start to finish in seed-derived
// chunks — the access pattern the adaptive readahead engine exists
// for. Each chunked read continues exactly where the previous one
// ended, so the inode's window grows and asynchronous readaheads flow
// through the cache's budgeted issue path while the probe re-validates
// the readahead invariants (flag discipline, pending count, budget
// clamp) at every boundary. The drained bytes verify against the
// oracle like any read.
func (m *machine) doSeqRead(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	of := m.oracle[path]
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		if errors.Is(err, kernel.ErrNoEnt) {
			if of != nil && !of.tainted && m.checkable(o.disk) {
				m.fail(fmt.Errorf("oracle-exists: open %s: %v, but oracle has %d bytes", path, err, len(of.data)))
				return
			}
			m.opLog(o, w, "absent")
			return
		}
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "open: %v", err)
		return
	}
	if of == nil && m.checkable(o.disk) {
		p.Close(fd)
		m.fail(fmt.Errorf("oracle-absent: %s opened but the oracle says it was never created", path))
		return
	}
	// Chunks smaller than a block keep consecutive reads inside and
	// across block boundaries strictly sequential.
	chunk := 1 + o.size/4
	var got []byte
	buf := make([]byte, chunk)
	for {
		n, rerr := p.Read(fd, buf)
		if rerr != nil {
			p.Close(fd)
			if of != nil {
				of.tainted = true
			}
			m.opLog(o, w, "read: %v", rerr)
			return
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	p.Close(fd)
	if of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "n=%d (unchecked)", len(got))
		return
	}
	if len(got) != len(of.data) {
		m.fail(fmt.Errorf("oracle-size: seq-read %s drained %d bytes, oracle expects %d", path, len(got), len(of.data)))
		return
	}
	if i := firstDiff(got, of.data); i >= 0 {
		m.fail(fmt.Errorf("oracle-content: %s differs at byte %d: disk %#02x, oracle %#02x",
			path, i, got[i], of.data[i]))
		return
	}
	m.opLog(o, w, "ok n=%d", len(got))
}

func (m *machine) doTrunc(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		m.taintEnsure(path)
		m.opLog(o, w, "open: %v", err)
		return
	}
	p.Close(fd)
	of := m.ensure(path)
	// Truncation resets the contents to a known state, clearing taint.
	// It is also durable: truncate writes the cleared inode
	// synchronously before freeing blocks, so after a crash the file is
	// exactly empty.
	of.data = nil
	of.tainted = false
	of.created = true
	of.synced = nil
	of.syncedOK = true
	m.opLog(o, w, "ok")
}

func (m *machine) doUnlink(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	of := m.oracle[path]
	err := p.Unlink(path)
	switch {
	case err == nil:
		delete(m.oracle, path)
		m.opLog(o, w, "ok")
	case errors.Is(err, kernel.ErrNoEnt):
		if of != nil && !of.tainted && m.checkable(o.disk) {
			m.fail(fmt.Errorf("oracle-exists: unlink %s: %v, but oracle has %d bytes", path, err, len(of.data)))
			return
		}
		m.opLog(o, w, "absent")
	default:
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "unlink: %v", err)
	}
}

func (m *machine) doFsync(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	fd, err := p.Open(path, kernel.ORdWr)
	if err != nil {
		m.opLog(o, w, "open: %v", err)
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
		m.opLog(o, w, "fsync: %v", serr)
		return
	}
	if !of.tainted {
		// The contract under test: a successful fsync makes this exact
		// content durable, surviving any later crash byte-exact.
		of.synced = append([]byte(nil), of.data...)
		of.syncedOK = true
	}
	m.opLog(o, w, "ok")
}

// doSpliceFF runs the block engine: splice(src → dst, EOF). With sig
// set, a signal is posted to the caller mid-transfer, exercising the
// interrupt-drain path; the partial destination is tainted.
func (m *machine) doSpliceFF(p *kernel.Proc, w int, o *op, sig bool) {
	src := m.path(w, o.disk, o.slot)
	dst := m.path(w, o.disk2, o.slot2)
	sfd, err := p.Open(src, kernel.ORdOnly)
	if err != nil {
		m.opLog(o, w, "open src: %v", err)
		return
	}
	dfd, err := p.Open(dst, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		p.Close(sfd)
		m.taintEnsure(dst)
		m.opLog(o, w, "open dst: %v", err)
		return
	}
	var c *kernel.Callout
	if sig {
		self := p
		c = m.k.Timeout(func() { m.k.Post(self, kernel.SIGIO) }, o.sigTicks)
	}
	n, serr := splice.Splice(p, sfd, dfd, splice.EOF)
	if c != nil {
		m.k.Untimeout(c)
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
		// drained before the stop.
		odo.tainted = true
		m.opLog(o, w, "moved=%d err=%v (dst tainted)", n, serr)
	case !srcKnown:
		if n > 0 {
			odo.tainted = true
		}
		m.opLog(o, w, "moved=%d (src unchecked, dst tainted)", n)
	default:
		if n != int64(len(oso.data)) && m.checkable(o.disk2) {
			m.fail(fmt.Errorf("oracle-splice: %s -> %s moved %d bytes, oracle expects %d", src, dst, n, len(oso.data)))
			return
		}
		// Splice overwrites the prefix; a longer destination keeps its
		// tail (SpliceSetSize only ever extends).
		if int64(len(odo.data)) < n {
			odo.data = append(odo.data, make([]byte, n-int64(len(odo.data)))...)
		}
		copy(odo.data[:n], oso.data)
		m.opLog(o, w, "ok moved=%d", n)
	}
}

// doSplicePipe splices a file into a fresh pipe while a spawned reader
// drains it, verifying the drained bytes against the oracle.
func (m *machine) doSplicePipe(p *kernel.Proc, w int, o *op) {
	src := m.path(w, o.disk, o.slot)
	sfd, err := p.Open(src, kernel.ORdOnly)
	if err != nil {
		m.opLog(o, w, "open src: %v", err)
		return
	}
	size, err := p.FileSize(sfd)
	if err != nil || size == 0 {
		p.Close(sfd)
		m.opLog(o, w, "empty src (size=%d err=%v)", size, err)
		return
	}
	n := size
	if n > 32<<10 {
		n = 32 << 10
	}

	pipe := dev.NewPipe(m.k, "", pipeCap)
	pfd := p.InstallFile(pipe, kernel.OWrOnly)

	var (
		got      []byte
		doneFlag bool
	)
	m.k.Spawn(fmt.Sprintf("drain%d", o.idx), func(rp *kernel.Proc) {
		rfd := rp.InstallFile(pipe, kernel.ORdOnly)
		buf := make([]byte, 4096)
		for int64(len(got)) < n {
			r, err := rp.Read(rfd, buf)
			if err != nil || r == 0 {
				break
			}
			got = append(got, buf[:r]...)
		}
		doneFlag = true
		m.k.Wakeup(&doneFlag)
	})

	moved, serr := splice.Splice(p, sfd, pfd, n)
	if serr != nil && moved < n {
		// Release the reader: push filler for the bytes that never came.
		filler := make([]byte, n-moved)
		p.Write(pfd, filler)
	}
	for !doneFlag {
		if err := p.Sleep(&doneFlag, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	p.Close(sfd)
	p.Close(pfd)

	of := m.oracle[src]
	if serr != nil || of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "moved=%d err=%v (unchecked)", moved, serr)
		return
	}
	if moved != n || int64(len(got)) != n {
		m.fail(fmt.Errorf("oracle-pipe: %s -> pipe moved %d, drained %d, want %d", src, moved, len(got), n))
		return
	}
	if i := firstDiff(got, of.data[:n]); i >= 0 {
		m.fail(fmt.Errorf("oracle-pipe-content: %s -> pipe differs at byte %d: got %#02x, oracle %#02x", src, i, got[i], of.data[i]))
		return
	}
	m.opLog(o, w, "ok moved=%d", moved)
}

// doPipeSplice splices from a pipe into a file (the source→file staging
// engine) while a spawned writer feeds the pipe a known pattern.
func (m *machine) doPipeSplice(p *kernel.Proc, w int, o *op) {
	dst := m.path(w, o.disk, o.slot)
	dfd, err := p.Open(dst, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		m.taintEnsure(dst)
		m.opLog(o, w, "open dst: %v", err)
		return
	}
	n := int64(o.size)
	pipe := dev.NewPipe(m.k, "", pipeCap)
	pfd := p.InstallFile(pipe, kernel.ORdOnly)

	m.k.Spawn(fmt.Sprintf("feed%d", o.idx), func(wp *kernel.Proc) {
		wfd := wp.InstallFile(pipe, kernel.OWrOnly)
		data := make([]byte, n)
		fillPattern(data, 0, o.pat)
		wp.Write(wfd, data)
	})

	moved, serr := splice.Splice(p, pfd, dfd, n)
	p.Close(pfd)
	p.Close(dfd)

	of := m.ensure(dst)
	of.created = true
	of.syncedOK = false
	if serr != nil || moved != n {
		of.tainted = true
		m.opLog(o, w, "moved=%d err=%v (tainted)", moved, serr)
		return
	}
	of.data = make([]byte, n)
	fillPattern(of.data, 0, o.pat)
	of.tainted = false
	m.opLog(o, w, "ok moved=%d", moved)
}

// doSpliceSock splices a file into a datagram socket while a spawned
// reader drains the peer socket.
func (m *machine) doSpliceSock(p *kernel.Proc, w int, o *op) {
	src := m.path(w, o.disk, o.slot)
	sfd, err := p.Open(src, kernel.ORdOnly)
	if err != nil {
		m.opLog(o, w, "open src: %v", err)
		return
	}
	size, err := p.FileSize(sfd)
	if err != nil || size == 0 {
		p.Close(sfd)
		m.opLog(o, w, "empty src (size=%d err=%v)", size, err)
		return
	}
	n := size
	if n > maxStreamIO {
		n = maxStreamIO
	}

	// Fresh port pair per op: sockets close with their procs' fd tables.
	portA, portB := 1000+2*o.idx, 1001+2*o.idx
	sa, err := m.net.NewSocket(portA)
	if err != nil {
		p.Close(sfd)
		m.opLog(o, w, "socket: %v", err)
		return
	}
	sb, err := m.net.NewSocket(portB)
	if err != nil {
		p.Close(sfd)
		m.opLog(o, w, "socket: %v", err)
		return
	}
	sa.Connect(portB)
	afd := p.InstallFile(sa, kernel.OWrOnly)

	var (
		got      []byte
		doneFlag bool
	)
	m.k.Spawn(fmt.Sprintf("recv%d", o.idx), func(rp *kernel.Proc) {
		bfd := rp.InstallFile(sb, kernel.ORdOnly)
		// Datagram reads truncate to the buffer (recvfrom semantics), so
		// the buffer must cover the largest datagram any path sends.
		buf := make([]byte, 32<<10)
		for int64(len(got)) < n {
			r, err := rp.Read(bfd, buf)
			if err != nil || r == 0 {
				break
			}
			got = append(got, buf[:r]...)
		}
		doneFlag = true
		m.k.Wakeup(&doneFlag)
	})

	moved, serr := splice.Splice(p, sfd, afd, n)
	if serr != nil && moved < n {
		filler := make([]byte, n-moved)
		p.Write(afd, filler)
	}
	// Close the sending socket before waiting for the reader: the close
	// queues an EOF marker, which is zero-length and therefore immune to
	// the datagram fault sites (drop/dup/reorder act on data packets
	// only), so the reader terminates even when an armed fault ate one
	// of the datagrams it is counting on.
	p.Close(afd)
	for !doneFlag {
		if err := p.Sleep(&doneFlag, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	p.Close(sfd)

	of := m.oracle[src]
	if serr != nil || of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "moved=%d err=%v (unchecked)", moved, serr)
		return
	}
	if m.netFaulted {
		// An armed fault on the oracle net perturbed delivery: a dropped
		// datagram shortens got, a duplicate lengthens it, a reorder
		// scrambles it. The splice-side accounting is still exact.
		if moved != n {
			m.fail(fmt.Errorf("oracle-sock: %s -> socket moved %d, want %d (net fault perturbs delivery, not the splice)", src, moved, n))
			return
		}
		m.opLog(o, w, "moved=%d drained=%d (net faulted, delivery unchecked)", moved, len(got))
		return
	}
	if moved != n || int64(len(got)) != n {
		m.fail(fmt.Errorf("oracle-sock: %s -> socket moved %d, drained %d, want %d", src, moved, len(got), n))
		return
	}
	if i := firstDiff(got, of.data[:n]); i >= 0 {
		m.fail(fmt.Errorf("oracle-sock-content: %s -> socket differs at byte %d: got %#02x, oracle %#02x", src, i, got[i], of.data[i]))
		return
	}
	m.opLog(o, w, "ok moved=%d", moved)
}

// streamPorts allocates the per-op port pair on the lossy net. Four
// apart so an op's transports can never collide with a neighbour's.
func streamPorts(o *op) (int, int) {
	return 5000 + 4*o.idx, 5002 + 4*o.idx
}

// doStreamConn exercises the transport handshake and teardown under
// loss: SYN, SYN-ACK, FIN exchanges all cross the dropping link, so
// every control segment's retransmission path gets fuzzed. The op
// succeeds only if both sides close cleanly; the client's retransmit
// count is folded into the log, so a replay that retransmits
// differently diverges the digest.
func (m *machine) doStreamConn(p *kernel.Proc, w int, o *op) {
	srvPort, cliPort := streamPorts(o)
	st, err := stream.NewTransport(m.k, m.snet, srvPort)
	if err != nil {
		m.fail(fmt.Errorf("stream-conn: server transport: %w", err))
		return
	}
	ct, err := stream.NewTransport(m.k, m.snet, cliPort)
	if err != nil {
		m.fail(fmt.Errorf("stream-conn: client transport: %w", err))
		return
	}

	var (
		doneFlag bool
		srvErr   error
	)
	m.k.Spawn(fmt.Sprintf("acc%d", o.idx), func(rp *kernel.Proc) {
		if err := st.Listen(rp); err != nil {
			srvErr = err
		} else if fd, _, err := st.Accept(rp); err != nil {
			srvErr = err
		} else {
			srvErr = rp.Close(fd)
		}
		doneFlag = true
		m.k.Wakeup(&doneFlag)
	})

	fd, conn, cerr := ct.Connect(p, srvPort)
	if cerr == nil {
		cerr = p.Close(fd)
	}
	for !doneFlag {
		if err := p.Sleep(&doneFlag, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	if cerr != nil || srvErr != nil {
		m.fail(fmt.Errorf("stream-conn: client err %v, server err %v", cerr, srvErr))
		return
	}
	m.opLog(o, w, "ok retx=%d", conn.Retransmits())
}

// doStreamXfer pushes a generated pattern through a full stream
// connection over the dropping link and requires byte-exact in-order
// delivery. Unlike the splice-to-socket op this one needs no file
// oracle: the expected bytes are a pure function of (pat, size), so
// the check is self-contained and survives op-sequence bisection.
func (m *machine) doStreamXfer(p *kernel.Proc, w int, o *op) {
	srvPort, cliPort := streamPorts(o)
	st, err := stream.NewTransport(m.k, m.snet, srvPort)
	if err != nil {
		m.fail(fmt.Errorf("stream-xfer: server transport: %w", err))
		return
	}
	ct, err := stream.NewTransport(m.k, m.snet, cliPort)
	if err != nil {
		m.fail(fmt.Errorf("stream-xfer: client transport: %w", err))
		return
	}
	want := make([]byte, o.size)
	fillPattern(want, 0, o.pat)

	var (
		got      []byte
		doneFlag bool
		srvRetx  int64
		srvErr   error
	)
	m.k.Spawn(fmt.Sprintf("str%d", o.idx), func(rp *kernel.Proc) {
		defer func() {
			doneFlag = true
			m.k.Wakeup(&doneFlag)
		}()
		if err := st.Listen(rp); err != nil {
			srvErr = err
			return
		}
		fd, sc, err := st.Accept(rp)
		if err != nil {
			srvErr = err
			return
		}
		buf := make([]byte, 8<<10)
		for {
			n, err := rp.Read(fd, buf)
			if err != nil {
				srvErr = err
				break
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if err := rp.Close(fd); err != nil && srvErr == nil {
			srvErr = err
		}
		srvRetx = sc.Retransmits()
	})

	fd, conn, cerr := ct.Connect(p, srvPort)
	if cerr == nil {
		if n, err := p.Write(fd, want); err != nil {
			cerr = err
		} else if n != len(want) {
			cerr = fmt.Errorf("short write: %d of %d", n, len(want))
		}
		if err := p.Close(fd); err != nil && cerr == nil {
			cerr = err
		}
	}
	for !doneFlag {
		if err := p.Sleep(&doneFlag, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	if cerr != nil || srvErr != nil {
		m.fail(fmt.Errorf("stream-xfer: client err %v, server err %v", cerr, srvErr))
		return
	}
	if len(got) != len(want) {
		m.fail(fmt.Errorf("stream-xfer: delivered %d bytes, want %d", len(got), len(want)))
		return
	}
	if i := firstDiff(got, want); i >= 0 {
		m.fail(fmt.Errorf("stream-xfer-content: byte %d differs: got %#02x, want %#02x", i, got[i], want[i]))
		return
	}
	m.opLog(o, w, "ok retx=%d/%d", conn.Retransmits(), srvRetx)
}

// doPollWait polls a nonblocking pipe read end while a spawned feeder
// sleeps a seed-derived number of ticks and then writes a known
// pattern. The op-level invariant is the poll contract itself: once
// poll reports the descriptor ready, the very next read must not
// return ErrWouldBlock — a would-block there is a false-ready (or a
// wakeup delivered without cause). Three variants cover the timeout
// shapes: infinite wait, a bounded wait that may expire and re-poll,
// and a zero-timeout scan before the real wait.
func (m *machine) doPollWait(p *kernel.Proc, w int, o *op) {
	pipe := dev.NewPipe(m.k, "", pipeCap)
	rfd := p.InstallFile(pipe, kernel.ORdOnly)
	if _, err := p.Fcntl(rfd, kernel.FSetFL, kernel.ONonblock); err != nil {
		m.fail(fmt.Errorf("poll-wait: fcntl: %v", err))
		return
	}
	n := o.size
	want := make([]byte, n)
	fillPattern(want, 0, o.pat)
	tick := m.k.Config().TickDuration()

	var fedFlag bool
	m.k.Spawn(fmt.Sprintf("pfeed%d", o.idx), func(wp *kernel.Proc) {
		wfd := wp.InstallFile(pipe, kernel.OWrOnly)
		wp.SleepFor(sim.Duration(o.sigTicks) * tick)
		wp.Write(wfd, want)
		pipe.CloseWrite()
		wp.Close(wfd)
		fedFlag = true
		m.k.Wakeup(&fedFlag)
	})

	fds := []kernel.PollFd{{FD: rfd, Events: kernel.PollIn}}
	timeouts := 0
	poll := func() error { // block until ready, counting bounded-wait expiries
		for {
			ready, perr := p.Poll(fds, pollTimeout(o))
			if perr == kernel.ErrIntr {
				// EINTR: consume the signal and retry, as any real
				// program's poll loop would.
				p.DeliverSignals()
				continue
			}
			if perr != nil {
				return perr
			}
			if ready > 0 {
				if fds[0].Revents&(kernel.PollIn|kernel.PollHup) == 0 {
					return fmt.Errorf("poll-ready-bits: revents=%#x lacks POLLIN/POLLHUP", fds[0].Revents)
				}
				return nil
			}
			timeouts++
		}
	}
	if int(o.pat)%3 == 2 {
		// Zero-timeout scan first: exercises the non-blocking path. The
		// feeder usually hasn't run yet, but a quantum preemption can
		// legitimately delay us past its delay, so readiness here is
		// logged, not asserted.
		ready, perr := p.Poll(fds, 0)
		if perr != nil {
			m.fail(fmt.Errorf("poll-wait: zero-timeout poll: %v", perr))
			return
		}
		if ready > 0 {
			m.logf("op %d: zero-timeout poll already ready", o.idx)
		}
	}
	var got []byte
	buf := make([]byte, 1024)
	justPolled := false
	for len(got) < n {
		if !justPolled {
			if err := poll(); err != nil {
				m.fail(fmt.Errorf("poll-wait: %v", err))
				return
			}
			justPolled = true
		}
		r, rerr := p.Read(rfd, buf)
		if rerr == kernel.ErrWouldBlock {
			if justPolled {
				m.fail(fmt.Errorf("poll-ready-read: descriptor reported ready but read would block (got %d of %d)", len(got), n))
				return
			}
			continue
		}
		if rerr != nil {
			m.fail(fmt.Errorf("poll-wait: read: %v", rerr))
			return
		}
		justPolled = false
		if r == 0 {
			break
		}
		got = append(got, buf[:r]...)
	}
	for !fedFlag {
		if err := p.Sleep(&fedFlag, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	p.Close(rfd)
	if len(got) != n {
		m.fail(fmt.Errorf("poll-wait: drained %d bytes, want %d", len(got), n))
		return
	}
	if i := firstDiff(got, want); i >= 0 {
		m.fail(fmt.Errorf("poll-wait-content: byte %d differs: got %#02x, want %#02x", i, got[i], want[i]))
		return
	}
	m.opLog(o, w, "ok n=%d timeouts=%d", n, timeouts)
}

// pollTimeout derives the op's poll timeout: infinite for even
// patterns, a bounded wait (which may expire before the feeder's delay
// and force a re-poll) otherwise.
func pollTimeout(o *op) int {
	if int(o.pat)%3 == 1 {
		return 1 + o.sigTicks/2
	}
	return -1
}

// doEventServe runs a miniature single-process event-loop server over
// the lossy stream net: the op's own process polls the listener plus
// every accepted connection, accepts nonblockingly, reads the request
// byte nonblockingly, and pushes a patterned response through
// nonblocking writes gated on POLLOUT. One or two spawned clients each
// request once, verify the response byte-exactly, and close. Every
// dispatch enforces the readiness contract: a descriptor poll reported
// readable (writable) must make progress on read (write) without
// ErrWouldBlock.
func (m *machine) doEventServe(p *kernel.Proc, w int, o *op) {
	srvPort, cliPort := streamPorts(o)
	nclients := 1 + int(o.pat)%2
	size := o.size
	want := make([]byte, size)
	fillPattern(want, 0, o.pat)

	st, err := stream.NewTransport(m.k, m.snet, srvPort)
	if err != nil {
		m.fail(fmt.Errorf("event-serve: server transport: %w", err))
		return
	}
	if err := st.Listen(p); err != nil {
		m.fail(fmt.Errorf("event-serve: listen: %w", err))
		return
	}
	lfd := p.InstallFile(st.File(), kernel.ORdOnly)

	cliErrs := make([]error, nclients)
	left := nclients
	for c := 0; c < nclients; c++ {
		c := c
		ct, err := stream.NewTransport(m.k, m.snet, cliPort+c)
		if err != nil {
			m.fail(fmt.Errorf("event-serve: client transport: %w", err))
			return
		}
		m.k.Spawn(fmt.Sprintf("ecli%d.%d", o.idx, c), func(cp *kernel.Proc) {
			defer func() {
				left--
				m.k.Wakeup(&left)
			}()
			fd, _, err := ct.Connect(cp, srvPort)
			if err != nil {
				cliErrs[c] = err
				return
			}
			defer cp.Close(fd)
			if _, err := cp.Write(fd, []byte{1}); err != nil {
				cliErrs[c] = err
				return
			}
			got := make([]byte, 0, size)
			buf := make([]byte, 4096)
			for len(got) < size {
				n, err := cp.Read(fd, buf)
				if err != nil {
					cliErrs[c] = err
					return
				}
				if n == 0 {
					cliErrs[c] = fmt.Errorf("early eof after %d of %d bytes", len(got), size)
					return
				}
				got = append(got, buf[:n]...)
			}
			if i := firstDiff(got, want); i >= 0 {
				cliErrs[c] = fmt.Errorf("byte %d differs: got %#02x want %#02x", i, got[i], want[i])
			}
		})
	}

	// esconn is one connection's place in the serve cycle: waiting for
	// its request byte, pushing the response, or waiting for the
	// client's close.
	type esconn struct {
		fd     int
		gotReq bool
		sent   int
		dead   bool
	}
	var conns []*esconn
	accepted := 0
	fds := make([]kernel.PollFd, 0, nclients+1)
	owners := make([]*esconn, 0, nclients+1)
	for {
		live := 0
		for _, ec := range conns {
			if !ec.dead {
				live++
			}
		}
		if accepted == nclients && live == 0 {
			break
		}
		fds, owners = fds[:0], owners[:0]
		if accepted < nclients {
			fds = append(fds, kernel.PollFd{FD: lfd, Events: kernel.PollIn})
			owners = append(owners, nil)
		}
		for _, ec := range conns {
			if ec.dead {
				continue
			}
			ev := kernel.PollIn
			if ec.gotReq && ec.sent < size {
				ev = kernel.PollOut
			}
			fds = append(fds, kernel.PollFd{FD: ec.fd, Events: ev})
			owners = append(owners, ec)
		}
		if _, perr := p.Poll(fds, -1); perr != nil {
			if perr == kernel.ErrIntr {
				p.DeliverSignals()
				continue
			}
			m.fail(fmt.Errorf("event-serve: poll: %v", perr))
			return
		}
		for i := range fds {
			if fds[i].Revents == 0 {
				continue
			}
			if owners[i] == nil { // listener
				first := true
				for {
					cfd, _, aerr := st.AcceptNB(p)
					if aerr == kernel.ErrWouldBlock {
						if first {
							m.fail(fmt.Errorf("event-ready-accept: listener reported readable but accept would block"))
							return
						}
						break
					}
					if aerr != nil {
						m.fail(fmt.Errorf("event-serve: accept: %v", aerr))
						return
					}
					first = false
					if _, ferr := p.Fcntl(cfd, kernel.FSetFL, kernel.ONonblock); ferr != nil {
						m.fail(fmt.Errorf("event-serve: fcntl: %v", ferr))
						return
					}
					accepted++
					conns = append(conns, &esconn{fd: cfd})
				}
				continue
			}
			ec := owners[i]
			if ec.dead {
				continue
			}
			if !ec.gotReq || ec.sent >= size {
				b := make([]byte, 1)
				r, rerr := p.Read(ec.fd, b)
				if rerr == kernel.ErrWouldBlock {
					m.fail(fmt.Errorf("event-ready-read: connection reported readable but read would block"))
					return
				}
				if rerr != nil || r == 0 {
					// Client closed its half (after the response) or the
					// connection failed; either way this conn is done.
					ec.dead = true
					p.Close(ec.fd)
					continue
				}
				ec.gotReq = true
			}
			firstWrite := fds[i].Revents&kernel.PollOut != 0
			for ec.sent < size {
				wn, werr := p.Write(ec.fd, want[ec.sent:])
				if werr == kernel.ErrWouldBlock {
					if firstWrite {
						m.fail(fmt.Errorf("event-ready-write: connection reported writable but write would block"))
						return
					}
					break
				}
				if werr != nil {
					ec.dead = true
					p.Close(ec.fd)
					break
				}
				firstWrite = false
				ec.sent += wn
			}
		}
	}
	p.Close(lfd)
	for left > 0 {
		if err := p.Sleep(&left, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
	for c, cerr := range cliErrs {
		if cerr != nil {
			m.fail(fmt.Errorf("event-serve: client %d: %v", c, cerr))
			return
		}
	}
	m.opLog(o, w, "ok clients=%d", nclients)
}

// splitIovs carves total bytes into up to nvec independently allocated
// iovec buffers of near-equal size (empty tails are dropped), so the
// scatter/gather paths see genuinely discontiguous memory rather than
// views of one array.
func splitIovs(total, nvec int) [][]byte {
	if nvec < 1 {
		nvec = 1
	}
	iovs := make([][]byte, 0, nvec)
	for i := 0; i < nvec && total > 0; i++ {
		n := total / (nvec - i)
		if n == 0 {
			n = 1
		}
		iovs = append(iovs, make([]byte, n))
		total -= n
	}
	return iovs
}

// doReadv is doRead through the vectored path: the range is scattered
// across 2–4 independent iovecs in one crossing and the reassembled
// bytes must match the content oracle exactly — the iovec
// byte-conservation invariant (no gaps, overlaps, or reordering across
// segment boundaries). A partial-progress error latched on the
// descriptor is observed through PendingError and taints like a read
// error would.
func (m *machine) doReadv(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	of := m.oracle[path]
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		if errors.Is(err, kernel.ErrNoEnt) {
			if of != nil && !of.tainted && m.checkable(o.disk) {
				m.fail(fmt.Errorf("oracle-exists: open %s: %v, but oracle has %d bytes", path, err, len(of.data)))
				return
			}
			m.opLog(o, w, "absent")
			return
		}
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "open: %v", err)
		return
	}
	if of == nil && m.checkable(o.disk) {
		p.Close(fd)
		m.fail(fmt.Errorf("oracle-absent: %s opened but the oracle says it was never created", path))
		return
	}
	iovs := splitIovs(o.size, 2+int(o.pat)%3)
	if _, err := p.Lseek(fd, o.off, kernel.SeekSet); err != nil {
		p.Close(fd)
		m.opLog(o, w, "lseek: %v", err)
		return
	}
	n, rerr := p.Readv(fd, iovs)
	lerr := p.PendingError(fd)
	p.Close(fd)
	if rerr != nil || lerr != nil {
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "readv: err=%v latched=%v", rerr, lerr)
		return
	}
	if of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "n=%d (unchecked)", n)
		return
	}
	want := 0
	if o.off < int64(len(of.data)) {
		want = len(of.data) - int(o.off)
		if want > o.size {
			want = o.size
		}
	}
	if n != want {
		m.fail(fmt.Errorf("oracle-size: readv %s off=%d returned %d bytes, oracle expects %d", path, o.off, n, want))
		return
	}
	if n == 0 {
		m.opLog(o, w, "ok n=0 (past eof)")
		return
	}
	got := (kernel.Uio{Iovs: iovs}).Gather()[:n]
	if i := firstDiff(got, of.data[o.off:o.off+int64(n)]); i >= 0 {
		m.fail(fmt.Errorf("iovec-conservation: readv %s differs at byte %d: disk %#02x, oracle %#02x",
			path, o.off+int64(i), got[i], of.data[o.off+int64(i)]))
		return
	}
	m.opLog(o, w, "ok n=%d iovs=%d", n, len(iovs))
}

// doWritev is doWrite through the vectored path: the patterned range is
// gathered from 2–4 independent iovecs in one crossing. Anything short
// of full-vector completion — an error, a latched partial-progress
// error, or a short count — taints like a partial write.
func (m *machine) doWritev(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		m.taintEnsure(path)
		m.opLog(o, w, "open: %v", err)
		return
	}
	data := make([]byte, o.size)
	fillPattern(data, o.off, o.pat)
	iovs := splitIovs(o.size, 2+int(o.pat)%3)
	rest := data
	for _, iov := range iovs {
		rest = rest[copy(iov, rest):]
	}
	if _, err := p.Lseek(fd, o.off, kernel.SeekSet); err != nil {
		p.Close(fd)
		m.taintEnsure(path)
		m.opLog(o, w, "lseek: %v", err)
		return
	}
	n, werr := p.Writev(fd, iovs)
	lerr := p.PendingError(fd)
	p.Close(fd)
	of := m.ensure(path)
	of.created = true
	of.syncedOK = false
	if werr != nil || lerr != nil || n != len(data) {
		of.tainted = true
		m.opLog(o, w, "writev: n=%d err=%v latched=%v (tainted)", n, werr, lerr)
		return
	}
	end := o.off + int64(n)
	if int64(len(of.data)) < end {
		of.data = append(of.data, make([]byte, end-int64(len(of.data)))...)
	}
	copy(of.data[o.off:end], data)
	m.opLog(o, w, "ok n=%d iovs=%d", n, len(iovs))
}

// doBatch exercises aggregated submission. The pattern byte picks the
// flavor: a read batch (lseek + two reads, verified against the oracle
// like doRead) or a write batch (lseek + two writes, optionally
// trailed by an in-batch fsync carrying doFsync's durability
// contract). Either way the batch-results invariant holds: Submit must
// return exactly one result per submitted op.
func (m *machine) doBatch(p *kernel.Proc, w int, o *op) {
	if int(o.pat)%3 == 0 {
		m.doBatchRead(p, w, o)
		return
	}
	m.doBatchWrite(p, w, o)
}

func (m *machine) doBatchWrite(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		m.taintEnsure(path)
		m.opLog(o, w, "open: %v", err)
		return
	}
	data := make([]byte, o.size)
	fillPattern(data, o.off, o.pat)
	ops := []kernel.BatchOp{{Code: kernel.BatchLseek, FD: fd, Off: o.off, Whence: kernel.SeekSet}}
	tiled := 0
	for _, part := range splitIovs(o.size, 2) {
		tiled += copy(part, data[tiled:]) // parts tile data in order
		ops = append(ops, kernel.BatchOp{Code: kernel.BatchWrite, FD: fd, Buf: part})
	}
	withSync := int(o.pat)%2 == 0
	if withSync {
		ops = append(ops, kernel.BatchOp{Code: kernel.BatchFsync, FD: fd})
	}
	res := p.Submit(ops)
	p.Close(fd)
	if len(res) != len(ops) {
		m.fail(fmt.Errorf("batch-results-len: submitted %d ops, got %d results", len(ops), len(res)))
		return
	}
	of := m.ensure(path)
	of.created = true
	of.syncedOK = false
	n := 0
	var berr error
	for i, r := range res {
		if r.Err != nil && berr == nil {
			berr = r.Err
		}
		if ops[i].Code == kernel.BatchWrite {
			n += int(r.N)
		}
	}
	if berr != nil || n != len(data) {
		// Any op failing mid-batch (or a short write) leaves the range
		// partially applied, like a partial plain write.
		of.tainted = true
		m.opLog(o, w, "batch-write: n=%d err=%v (tainted)", n, berr)
		return
	}
	end := o.off + int64(n)
	if int64(len(of.data)) < end {
		of.data = append(of.data, make([]byte, end-int64(len(of.data)))...)
	}
	copy(of.data[o.off:end], data)
	if withSync && !of.tainted {
		// The in-batch fsync succeeded after both writes: this exact
		// content is durable (doFsync's contract, one crossing earlier).
		of.synced = append([]byte(nil), of.data...)
		of.syncedOK = true
	}
	m.opLog(o, w, "ok n=%d ops=%d sync=%v", n, len(ops), withSync)
}

func (m *machine) doBatchRead(p *kernel.Proc, w int, o *op) {
	path := m.path(w, o.disk, o.slot)
	of := m.oracle[path]
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		if errors.Is(err, kernel.ErrNoEnt) {
			if of != nil && !of.tainted && m.checkable(o.disk) {
				m.fail(fmt.Errorf("oracle-exists: open %s: %v, but oracle has %d bytes", path, err, len(of.data)))
				return
			}
			m.opLog(o, w, "absent")
			return
		}
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "open: %v", err)
		return
	}
	if of == nil && m.checkable(o.disk) {
		p.Close(fd)
		m.fail(fmt.Errorf("oracle-absent: %s opened but the oracle says it was never created", path))
		return
	}
	bufs := splitIovs(o.size, 2)
	ops := []kernel.BatchOp{{Code: kernel.BatchLseek, FD: fd, Off: o.off, Whence: kernel.SeekSet}}
	for _, buf := range bufs {
		ops = append(ops, kernel.BatchOp{Code: kernel.BatchRead, FD: fd, Buf: buf})
	}
	res := p.Submit(ops)
	p.Close(fd)
	if len(res) != len(ops) {
		m.fail(fmt.Errorf("batch-results-len: submitted %d ops, got %d results", len(ops), len(res)))
		return
	}
	n := 0
	got := make([]byte, 0, o.size)
	var berr error
	for i, r := range res {
		if r.Err != nil && berr == nil {
			berr = r.Err
		}
		if ops[i].Code == kernel.BatchRead && berr == nil {
			n += int(r.N)
			got = append(got, ops[i].Buf[:r.N]...)
		}
	}
	if berr != nil {
		if of != nil {
			of.tainted = true
		}
		m.opLog(o, w, "batch-read: %v", berr)
		return
	}
	if of == nil || of.tainted || !m.checkable(o.disk) {
		m.opLog(o, w, "n=%d (unchecked)", n)
		return
	}
	want := 0
	if o.off < int64(len(of.data)) {
		want = len(of.data) - int(o.off)
		if want > o.size {
			want = o.size
		}
	}
	if n != want {
		m.fail(fmt.Errorf("oracle-size: batch-read %s off=%d returned %d bytes, oracle expects %d", path, o.off, n, want))
		return
	}
	if n == 0 {
		m.opLog(o, w, "ok n=0 (past eof)")
		return
	}
	if i := firstDiff(got, of.data[o.off:o.off+int64(n)]); i >= 0 {
		m.fail(fmt.Errorf("oracle-content: batch-read %s differs at byte %d: disk %#02x, oracle %#02x",
			path, o.off+int64(i), got[i], of.data[o.off+int64(i)]))
		return
	}
	m.opLog(o, w, "ok n=%d ops=%d", n, len(ops))
}
