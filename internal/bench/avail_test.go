package bench

import (
	"strings"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// Two measures of availability agree (ROADMAP item 19(c)), as a checked
// relation. Table 1 measures the CPU a copy takes as the time a
// competing test program loses: (F − 1) times the idle baseline. The
// sweeps measure it as the copy's busy time on an otherwise idle
// machine. Per megabyte copied — Table 1's over the megabytes the copy
// read from disk while the test program ran — the two are within
// availBusyBound of each other. They are not equal: the competitor
// changes what the cache holds between rounds and how often the CPU
// switches.

// availBusyBound is how far, as a fraction, the test program's lost
// time per megabyte may stray from the copy's own busy time per
// megabyte. The six cells of Table 1 read 0.995–1.129 times it.
const availBusyBound = 0.2

// availCell is one Table 1 cell beside its copy alone.
type availCell struct {
	disk         DiskKind
	mode         workload.CopyMode
	lost         sim.Duration // the test program's loss to the copy
	lostMB       float64      // what the copy read from disk meanwhile
	busy, busyMB float64      // the copy alone: CPU busy seconds, megabytes
}

// check holds the cell to the relation.
func (c availCell) check() error {
	lost, busy := c.lost.Seconds()/c.lostMB, c.busy/c.busyMB
	if r := lost / busy; r < 1-availBusyBound || r > 1+availBusyBound {
		return kernel.Violation("perf-avail-busy", "%s %s: the test program lost %.4f s per MB the copy read, the copy alone keeps the CPU busy %.4f s per MB: %.3f times, want within %.0f%%",
			c.disk, c.mode, lost, busy, r, 100*availBusyBound)
	}
	return nil
}

// diskReadMB sums what the machine's disks have read, in megabytes, by
// the trace's count.
func diskReadMB(tr *trace.Tracer) float64 {
	var n int64
	for _, c := range tr.Metrics().Snapshot() {
		if strings.HasPrefix(c.Name, "disk.") && strings.HasSuffix(c.Name, ".read_bytes") {
			n += c.Value
		}
	}
	return float64(n) / (1 << 20)
}

// measureAvailCell runs Table 1's environment for one cell, counting
// the disk reads across the test program's run (the cache is cold at
// every round, so each byte copied is read once), and then the copy
// alone on a machine of its own, counting its busy time.
func measureAvailCell(d DiskKind, mode workload.CopyMode) availCell {
	s := DefaultSetup(d)
	c := availCell{disk: d, mode: mode}
	idle := MeasureIdle(s)
	availRun(s, mode, func(p *kernel.Proc) {
		tr := p.Kernel().Tracer()
		if tr == nil {
			tr = p.Kernel().StartTrace(nil)
		}
		read := diskReadMB(tr)
		test := workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
		c.lost, c.lostMB = test.Elapsed-idle, diskReadMB(tr)-read
	})
	m := NewMachine(s)
	defer m.Release()
	m.ColdRun("copier", 7, func(p *kernel.Proc) {
		before := m.K.Stats()
		res := mustCopy(p, workload.DefaultCopySpec(SrcPath, DstPath, mode))
		after := m.K.Stats()
		c.busy = (after.Now.Sub(before.Now) - (after.Idle - before.Idle)).Seconds()
		c.busyMB = float64(res.Bytes) / (1 << 20)
	})
	return c
}

// TestAvailabilityMatchesBusyTime holds every cell of Table 1, cp and
// scp on each disk, to perf-avail-busy.
func TestAvailabilityMatchesBusyTime(t *testing.T) {
	for _, d := range []DiskKind{RAM, RZ58, RZ56} {
		for _, mode := range []workload.CopyMode{workload.CopyReadWrite, workload.CopySplice} {
			if err := measureAvailCell(d, mode).check(); err != nil {
				t.Error(err)
			}
		}
	}
}
