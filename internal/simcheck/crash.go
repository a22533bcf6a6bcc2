package simcheck

import (
	"fmt"

	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// Crash sweep: the machine loses power at an op boundary, every piece
// of volatile state is discarded (dirty delayed-write buffers, queued
// disk requests, in-core inodes), the repairing fsck brings both
// volumes back, and the remounted filesystems must satisfy the crash
// contract — every file whose last successful fsync preceded the crash
// reads back byte-exact, every durably created name still resolves,
// and both volumes check fsck-clean.

// crashOp is the power cut as an op. Neither mix draws it: the crash
// generator places exactly one, and a fired crash-boundary fault runs
// its body after whichever op it hit.
var crashOp = &opRow{name: "crash-recover", text: textName, run: (*machine).doCrash}

// doCrash pulls the plug: volatile state is discarded while durably
// committed platter state survives, then recovery runs (repair, verify
// clean, remount) and the oracle collapses to the durable view.
func (m *machine) doCrash(p *kernel.Proc, o *op) {
	// Quiescence: every op is self-contained, and the crash sweep runs
	// one worker, so at an op boundary no file may be held open. A held
	// inode here is a harness bug, not a filesystem one.
	for i, f := range m.fss {
		if n := f.LiveInodes(); n != 0 {
			m.fail(fmt.Errorf("crash: /d%d not quiescent: %d in-core inode(s) held", i, n))
			return
		}
	}
	// Same contract for the page pool: every mapping was unmapped by its
	// op, so the power cut must find no mapped pages to corrupt.
	if err := m.pool.CheckDrained(); err != nil {
		m.fail(fmt.Errorf("crash: page pool not quiescent: %w", err))
		return
	}

	// Power cut, per disk: queued transfers are dropped (their data
	// never transferred), while a transfer already in progress is past
	// the point of no return and completes. Wait it out, then discard
	// every cached buffer — the dirty ones are the delayed writes the
	// platter never saw.
	var dropped [2]int
	for i, d := range m.disks {
		dropped[i] = d.Crash()
	}
	for m.disks[0].Busy() || m.disks[1].Busy() {
		p.SleepFor(10 * sim.Millisecond) // one clock tick
	}
	for i, d := range m.disks {
		lost, discarded := m.cache.Crash(d)
		m.k.TraceEmit(trace.KindFSCrash, 0, int64(lost), int64(dropped[i]), d.DevName())
		m.logf("op %d w%d %s: /d%d power cut: %d dirty buffer(s) lost, %d queued request(s) dropped, %d cached discarded",
			o.idx, o.worker, o.describe(), i, lost, dropped[i], discarded)
	}

	// Recovery: repair each volume, require the follow-up plain fsck to
	// come back clean, and remount (replacing the dead in-core fs).
	for i, d := range m.disks {
		rep, err := fs.FsckRepair(p.Ctx(), m.cache, d)
		if err != nil {
			m.fail(fmt.Errorf("crash: fsck-repair /d%d: %v", i, err))
			return
		}
		m.logf("op %d: fsck-repair /d%d: %d problem(s), %d repair(s)", o.idx, i, len(rep.Problems), rep.Repaired)
		chk, err := fs.Fsck(p.Ctx(), m.cache, d)
		if err != nil {
			m.fail(fmt.Errorf("crash: post-repair fsck /d%d: %v", i, err))
			return
		}
		if !chk.Clean() {
			m.fail(fmt.Errorf("crash: /d%d not clean after repair: %d problem(s), first: %s",
				i, len(chk.Problems), chk.Problems[0]))
			return
		}
		f, err := fs.Mount(p.Ctx(), m.cache, d)
		if err != nil {
			m.fail(fmt.Errorf("crash: remount /d%d: %v", i, err))
			return
		}
		f.SetPager(m.pool)
		m.fss[i] = f
		m.k.Mount(fmt.Sprintf("/d%d", i), f)
	}

	m.postCrashOracle()
	m.verifyDurable(p, o)
}

// postCrashOracle collapses the oracle to the durable view: a file
// whose last successful fsync is unmodified reads back exactly that
// snapshot; everything else created survives with unpredictable
// content; unlinked names were removed at unlink time (durable, so no
// change here).
func (m *machine) postCrashOracle() {
	for _, of := range m.oracle {
		if of.syncedOK {
			of.data = append([]byte(nil), of.synced...)
			of.tainted = false
		} else {
			of.tainted = true
		}
	}
}

// verifyDurable checks the crash contract immediately after remount:
// every durably created file still resolves, and every fsync'd file
// reads back byte-exact.
func (m *machine) verifyDurable(p *kernel.Proc, o *op) {
	synced, existing := 0, 0
	for _, path := range m.oraclePaths() {
		of := m.oracle[path]
		if !of.created {
			continue
		}
		fd, err := p.Open(path, kernel.ORdOnly)
		if err != nil {
			m.fail(fmt.Errorf("crash-exists: %s lost by the crash: %v (oracle: created durable, synced=%v)",
				path, err, of.syncedOK))
			return
		}
		existing++
		if of.tainted {
			p.Close(fd)
			continue
		}
		got := make([]byte, len(of.data)+1)
		n, rerr := p.Read(fd, got)
		p.Close(fd)
		if rerr != nil {
			m.fail(fmt.Errorf("crash-content: read %s after recovery: %v", path, rerr))
			return
		}
		if n != len(of.data) {
			m.fail(fmt.Errorf("crash-size: %s has %d bytes after recovery, fsync promised %d", path, n, len(of.data)))
			return
		}
		if i := firstDiff(got[:n], of.data); i >= 0 {
			m.fail(fmt.Errorf("crash-content: %s differs at byte %d after recovery: disk %#02x, fsync promised %#02x",
				path, i, got[i], of.data[i]))
			return
		}
		synced++
	}
	m.opLog(o, "recovered: %d file(s) survive, %d verified byte-exact against fsync snapshots", existing, synced)
}
