package simcheck

import (
	"fmt"
	"math/bits"
	"slices"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// The op vocabulary. Every op is self-contained — it opens what it
// needs, acts, and closes — so any subset of a generated sequence is
// itself a valid workload. That property is what makes seed
// minimization by op-sequence bisection sound.

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
	row    *opRow

	disk, slot   int // primary file
	disk2, slot2 int // splice destination
	off          int64
	size         int
	pat          byte
	sigTicks     int          // splice-sig, poll-wait: delay before the signal / the feeder's write
	faultDisk    int          // fault: which volume absorbs the fault
	faultBlk     int64        // fault: physical block on the faulted volume
	faultRead    bool         // fault: fail reads (else writes)
	think        sim.Duration // user-mode compute after the op
}

// opFunc is an op body, run by worker o.worker's process p.
type opFunc func(m *machine, p *kernel.Proc, o *op)

// opRow is everything the harness knows about one kind of op.
type opRow struct {
	// name identifies the op in the docs and, unless text spells it
	// otherwise, in the event log.
	name string
	// std and crash are the op's weight, in percent, in the standard mix
	// and in the crash sweep's mix; 0 means that mix never draws it.
	std, crash int
	// draw makes the op's own PRNG draws, after the ones every op makes.
	draw func(r *sim.Rand, o *op)
	// text renders the op for the event log; the digest folds it in.
	text func(name string, o *op) string
	run  opFunc
}

// opTable is the vocabulary, once, in generation order: generate walks
// it by cumulative weight, so reordering rows (or changing a weight or
// a draw) changes every digest. Plain file traffic dominates the
// standard mix; mapped I/O, splice variants, readiness multiplexing and
// fault/signal events season it. The crash mix is the plain file
// vocabulary with a heavy fsync/msync bias (so most runs have synced
// state to verify), mmap stores for the pageout write path and splice
// file→file for the bypass write engine — no fault or stream ops: the
// crash is the disturbance under test, and the post-crash content
// checks need checkable volumes.
var opTable = []*opRow{
	{name: "write", std: 11, crash: 22, text: textRangePat, run: rangeWrite(storeWrite)},
	{name: "writev", std: 5, text: textRangePat, run: rangeWrite(storeWritev)},
	{name: "copy", std: 2, crash: 4, draw: drawDst, text: textCopy, run: (*machine).doCopy},
	{name: "read", std: 6, crash: 8, text: textRange, run: rangeRead(false, fetchRead)},
	{name: "readv", std: 4, text: textRange, run: rangeRead(false, fetchReadv)},
	{name: "seq-read", std: 5, crash: 4, text: textChunk, run: rangeRead(true, fetchSeq)},
	{name: "trunc", std: 4, crash: 6, text: textFile, run: (*machine).doTrunc},
	{name: "unlink", std: 4, crash: 6, text: textFile, run: (*machine).doUnlink},
	{name: "fsync", std: 4, crash: 22, text: textFile, run: (*machine).doFsync},
	{name: "mmap-read", std: 2, text: textFile, run: rangeRead(true, fetchMapped(false))},
	{name: "mmap-private", std: 2, text: textRangePat, run: rangeRead(false, fetchMapped(true))},
	{name: "mmap-write", std: 4, crash: 6, text: textRangePat, run: rangeWrite(mappedStore(false))},
	{name: "msync", std: 3, crash: 6, text: textRangePat, run: rangeWrite(mappedStore(true))},
	{name: "splice-file", std: 5, crash: 10, draw: drawDst, text: textSpliceFile, run: (*machine).doSpliceFile},
	{name: "batch-submit", std: 3, text: textRangePat, run: batch()},
	{name: "splice-pipe", std: 4, text: textSplicePipe, run: (*machine).doSplicePipe},
	{name: "pipe-splice", std: 4, draw: drawStreamSize, text: textPipeSplice, run: (*machine).doPipeSplice},
	{name: "splice-sock", std: 4, text: textSpliceSock, run: (*machine).doSpliceSock},
	{name: "splice-sig", std: 3, draw: drawSig, text: textSpliceSig, run: (*machine).doSpliceFile},
	{name: "trace-snapshot", std: 2, crash: 6, text: textName, run: (*machine).doTraceSnap},
	{name: "fault", std: 3, draw: drawFault, text: textFault, run: (*machine).doFault},
	{name: "stream-connect", std: 3, text: textName, run: (*machine).doStreamConn},
	{name: "poll-wait", std: 3, draw: drawPoll, text: textPoll, run: (*machine).doPollWait},
	{name: "event-serve", std: 3, draw: drawStreamSize, text: textSizePat, run: (*machine).doEventServe},
	{name: "stream-transfer", std: 7, draw: drawStreamSize, text: textSizePat, run: (*machine).doStreamXfer},
	crashOp,
}

// The describe formats more than one row uses; a row's own format sits
// beside its body.
func textName(name string, o *op) string { return name }

func textFile(name string, o *op) string {
	return fmt.Sprintf("%s d%d/f%d", name, o.disk, o.slot)
}

func textRange(name string, o *op) string {
	return fmt.Sprintf("%s d%d/f%d off=%d n=%d", name, o.disk, o.slot, o.off, o.size)
}

func textRangePat(name string, o *op) string {
	return fmt.Sprintf("%s d%d/f%d off=%d n=%d pat=%#02x", name, o.disk, o.slot, o.off, o.size, o.pat)
}

func textSizePat(name string, o *op) string {
	return fmt.Sprintf("%s n=%d pat=%#02x", name, o.size, o.pat)
}

// drawStreamSize re-draws the size for the ops that move a generated
// stream rather than a file range.
func drawStreamSize(r *sim.Rand, o *op) { o.size = 1 + r.Intn(maxStreamIO) }

// drawDst picks a splice destination distinct from the source.
func drawDst(r *sim.Rand, o *op) {
	o.disk2 = r.Intn(2)
	o.slot2 = r.Intn(slotsPerWk)
	if o.disk2 == o.disk && o.slot2 == o.slot {
		o.slot2 = (o.slot2 + 1) % slotsPerWk
	}
}

func (o *op) describe() string { return o.row.text(o.row.name, o) }

// pick maps a draw in [0,100) onto the mix by cumulative weight.
func pick(w int, crash bool) *opRow {
	for _, row := range opTable {
		weight := row.std
		if crash {
			weight = row.crash
		}
		if w < weight {
			return row
		}
		w -= weight
	}
	panic("simcheck: op weights do not sum to 100")
}

// generate derives the full op sequence from the seed. Generation is
// the only place randomness enters the harness; execution is a pure
// function of this list. A crash run is single-worker (so it draws no
// worker) and carries exactly one power cut, at a seed-derived boundary
// in the middle half of the run.
func generate(cfg Config) []*op {
	r := sim.NewRand(cfg.Seed)
	crashAt := -1
	if cfg.Crash {
		crashAt = cfg.Ops/4 + int(r.Int63n(int64(cfg.Ops/2+1)))
	}
	ops := make([]*op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		if i == crashAt {
			ops = append(ops, &op{idx: i, row: crashOp})
			continue
		}
		o := &op{idx: i}
		if !cfg.Crash {
			o.worker = r.Intn(cfg.Workers)
		}
		o.disk = r.Intn(2)
		o.slot = r.Intn(slotsPerWk)
		o.off = r.Int63n(maxOff)
		o.size = 1 + r.Intn(maxIO)
		o.pat = byte(1 + r.Intn(255))
		o.think = sim.Duration(r.Intn(3)) * 700 * sim.Microsecond
		o.row = pick(r.Intn(100), cfg.Crash)
		if o.row.draw != nil {
			o.row.draw(r, o)
		}
		ops = append(ops, o)
	}
	return ops
}

// path names the op's primary file, dst its splice destination.
func (o *op) path() string { return filePath(o.worker, o.disk, o.slot) }
func (o *op) dst() string  { return filePath(o.worker, o.disk2, o.slot2) }

// filePath names worker w's file in slot s on the given volume. Workers
// own disjoint file sets, so each file's oracle entry is updated by
// exactly one op stream, in that stream's order.
func filePath(w, disk, slot int) string {
	return fmt.Sprintf("/d%d/w%df%d", disk, w, slot)
}

// pattern fills data with the position-dependent test pattern for its
// bytes at off, and returns it: recognizable, cheap, and different for
// every (pat, offset). It repeats every 256 bytes, so one period is
// built and then doubled by copying.
func pattern(data []byte, off int64, pat byte) []byte {
	n := len(data)
	for i := range data[:min(n, 256)] {
		data[i] = pat ^ byte(off+int64(i))
	}
	for i := 256; i < n; i *= 2 {
		copy(data[i:], data[:i])
	}
	return data
}

// ioBuf returns n bytes of worker w's I/O buffer k: a block kept for
// the run and redrawn only when an op needs more, at the next power of
// two from 8 KB, a size the recycler keeps from an earlier run; it
// holds whatever the last op left. An op writes from its buffers and
// reads into them what it drops once checked: the oracle's images are
// the only memory an op keeps. They are the op's while it runs, so a
// helper the op awaits may use them, and a write that lends them to a
// pipe or socket completes before the op returns.
func (m *machine) ioBuf(w, k, n int) []byte {
	if b := m.bufs[w][k]; b == nil || len(b.Bytes) < n {
		b.Unref()
		m.bufs[w][k] = sim.NewBlock(max(blockSize, 1<<bits.Len(uint(n-1))))
	}
	return m.bufs[w][k].Bytes[:n]
}

// readOn reads chunk bytes from fd in place, into the capacity past
// got's end (grown if got has less), and returns got with what arrived
// appended; after an error, got as it was.
func readOn(p *kernel.Proc, fd int, got []byte, chunk int) ([]byte, int, error) {
	got = slices.Grow(got, chunk)
	n, err := p.Read(fd, got[len(got):len(got)+chunk])
	if err != nil {
		return got, 0, err
	}
	return got[:len(got)+n], n, nil
}

// A gate is how a process waits for helpers it spawned: each helper
// leaves through exit, and await returns once all of them have.
type gate struct {
	k    *kernel.Kernel
	left int
}

func (m *machine) newGate(helpers int) *gate { return &gate{k: m.K, left: helpers} }

// helper spawns body as a helper process behind a gate of its own.
func (m *machine) helper(name string, body func(hp *kernel.Proc)) *gate {
	g := m.newGate(1)
	m.K.Spawn(name, func(hp *kernel.Proc) {
		defer g.exit()
		body(hp)
	})
	return g
}

func (g *gate) exit() {
	g.left--
	g.k.Wakeup(g)
}

func (g *gate) await(p *kernel.Proc) {
	for g.left > 0 {
		if err := p.Sleep(g, kernel.PSLEP); err != nil {
			p.DeliverSignals()
		}
	}
}

// worker executes its share of the op sequence.
func (m *machine) worker(p *kernel.Proc, ops []*op) {
	defer m.workers.exit()
	for _, o := range ops {
		if m.violation != nil {
			break
		}
		m.curOp = fmt.Sprintf("op %d (w%d %s)", o.idx, o.worker, o.describe())
		o.row.run(m, p, o)
		m.opsDone++
		// Fault site: the machine can lose power at any op boundary. Only
		// single-worker boundaries are eligible (a sibling mid-op would
		// break doCrash's quiescence contract), and only while no disk
		// defect is armed (a fault-op-injected defect could have made a
		// create non-durable, voiding the durability oracle). Both gates
		// are pure functions of the run so far, so the census and armed
		// runs count identically.
		if m.cfg.Workers == 1 && o.row != crashOp && !m.faulted[0] && !m.faulted[1] &&
			m.K.Faults().Hit(SiteCrashBoundary, int64(o.idx)) {
			m.logf("op %d w%d: crash-boundary fault fired", o.idx, o.worker)
			m.doCrash(p, o)
		}
		if m.cfg.Damage != "" && !m.damaged && m.opsDone >= m.cfg.DamageAfter {
			m.damaged = true
			m.Cache.Damage(m.cfg.Damage)
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

// opLog records an op's outcome, stamped with the virtual time.
func (m *machine) opLog(o *op, format string, args ...any) {
	m.logf("op %d w%d %s: %s t=%v", o.idx, o.worker, o.describe(), fmt.Sprintf(format, args...), m.K.Now())
}
