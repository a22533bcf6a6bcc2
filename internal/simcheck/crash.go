package simcheck

import "kdp/internal/kernel"

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

// doCrash pulls the plug (machine.PowerCut: volatile state is discarded
// while durably committed platter state survives), recovers each volume
// (machine.Recover: repair, verify clean, remount) and collapses the
// oracle to the durable view.
func (m *machine) doCrash(p *kernel.Proc, o *op) {
	// Every op is self-contained and the crash sweep runs one worker, so
	// at an op boundary the machine is quiescent: a refused cut is a
	// harness bug, not a filesystem one.
	cuts, err := m.PowerCut(p)
	if err != nil {
		m.violate("crash-recover", "%v", err)
		return
	}
	for i, c := range cuts {
		m.logf("op %d w%d %s: /d%d power cut: %d dirty buffer(s) lost, %d queued request(s) dropped, %d cached discarded",
			o.idx, o.worker, o.describe(), i, c.Lost, c.Dropped, c.Discarded)
	}
	for i := range m.Disks {
		rep, err := m.Recover(p, i)
		if rep != nil {
			m.logf("op %d: fsck-repair /d%d: %d problem(s), %d repair(s)", o.idx, i, len(rep.Problems), rep.Repaired)
		}
		if err != nil {
			m.violate("crash-recover", "%v", err)
			return
		}
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
			of.synced.share(&of.data)
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
			m.violate("crash-exists", "%s lost by the crash: %v (oracle: created durable, synced=%v)",
				path, err, of.syncedOK)
			return
		}
		existing++
		if of.tainted {
			p.Close(fd)
			continue
		}
		got := m.ioBuf(o.worker, 0, of.data.size+1)
		n, rerr := p.Read(fd, got)
		p.Close(fd)
		if rerr != nil {
			m.violate("crash-content", "read %s after recovery: %v", path, rerr)
			return
		}
		if n != of.data.size {
			m.violate("crash-size", "%s has %d bytes after recovery, fsync promised %d", path, n, of.data.size)
			return
		}
		if i := of.data.diff(0, got[:n]); i >= 0 {
			m.violate("crash-content", "%s differs at byte %d after recovery: disk %#02x, fsync promised %#02x",
				path, i, got[i], of.data.span(i)[0])
			return
		}
		synced++
	}
	m.opLog(o, "recovered: %d file(s) survive, %d verified byte-exact against fsync snapshots", existing, synced)
}
