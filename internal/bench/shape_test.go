package bench

import (
	"testing"

	"kdp/internal/disk"
	"kdp/internal/workload"
)

// These tests pin the reproduction to the paper's shape at full scale
// (8MB files, the real Table 1/2 configuration). If a model change
// drifts the headline results out of these bands, something that the
// paper's claims depend on has broken. The bands are deliberately
// generous — they encode "who wins and by roughly what factor", not
// exact calibration (see EXPERIMENTS.md for the exact paper-vs-measured
// values).

func TestShapeTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	rows := Table2(disk.Kinds())
	get := func(k DiskKind) Table2Row {
		for _, r := range rows {
			if r.Disk == k {
				return r
			}
		}
		t.Fatalf("no row for %v", k)
		return Table2Row{}
	}
	ram, rz58, rz56 := get(RAM), get(RZ58), get(RZ56)

	// Paper: "splice-based copying can operate at 1.8 times the maximum
	// throughput of read/write-based copying in the best case" (1.77x
	// on the RAM disk).
	ratio := ram.SCPKBs / ram.CPKBs
	if ratio < 1.5 || ratio > 2.3 {
		t.Errorf("RAM scp/cp ratio %.2f outside [1.5, 2.3] (paper: 1.77)", ratio)
	}
	// Paper RAM absolutes: scp 3343, cp 1884 KB/s. Allow ±25%.
	if ram.CPKBs < 1884*0.75 || ram.CPKBs > 1884*1.25 {
		t.Errorf("RAM cp = %.0f KB/s, outside ±25%% of the paper's 1884", ram.CPKBs)
	}
	if ram.SCPKBs < 3343*0.75 || ram.SCPKBs > 3343*1.25 {
		t.Errorf("RAM scp = %.0f KB/s, outside ±25%% of the paper's 3343", ram.SCPKBs)
	}
	// Paper: "for real disks ... the benefit of splice is minor."
	for _, r := range []Table2Row{rz58, rz56} {
		if r.PctImprove < 0 || r.PctImprove > 30 {
			t.Errorf("%v improvement %.0f%% not 'minor' (0-30%%)", r.Disk, r.PctImprove)
		}
	}
	// Device ordering.
	if !(ram.SCPKBs > rz58.SCPKBs && rz58.SCPKBs > rz56.SCPKBs) {
		t.Errorf("scp device ordering broken: %.0f / %.0f / %.0f", ram.SCPKBs, rz58.SCPKBs, rz56.SCPKBs)
	}
}

func TestShapeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	rows := Table1(disk.Kinds())
	for _, r := range rows {
		// Splice must improve availability on every device type, and
		// the paper bounds the improvement at "20 to 70 percent".
		if r.Fscp >= r.Fcp {
			t.Errorf("%v: splice environment not better (F_cp %.2f, F_scp %.2f)", r.Disk, r.Fcp, r.Fscp)
		}
		if r.PctImprove < 15 || r.PctImprove > 80 {
			t.Errorf("%v: improvement %.0f%% outside the paper's 20-70%% band (±5)", r.Disk, r.PctImprove)
		}
		// Slowdowns must be physical: >= 1.
		if r.Fscp < 1 || r.Fcp < 1 {
			t.Errorf("%v: slowdown below 1: %.2f/%.2f", r.Disk, r.Fcp, r.Fscp)
		}
	}
	// The RAM row pins the paper's most-cited cells: test at ~50% of
	// idle speed under cp, and meaningfully above it under scp.
	for _, r := range rows {
		if r.Disk != RAM {
			continue
		}
		if r.Fcp < 1.8 || r.Fcp > 2.3 {
			t.Errorf("RAM F_cp %.2f outside [1.8, 2.3] (paper: ~2.0)", r.Fcp)
		}
		if r.Fscp < 1.1 || r.Fscp > 1.6 {
			t.Errorf("RAM F_scp %.2f outside [1.1, 1.6] (paper: ~1.25)", r.Fscp)
		}
	}
}

func TestShapeVMSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	// The mmap data path on the RAM disk: no kernel copyout/copyin, so
	// mcp must beat cp on throughput and consume less CPU — the same
	// availability argument the paper makes for splice, bought with
	// priced page faults instead of an in-kernel data path.
	cp := measureVMCell(RAM, workload.CopyReadWrite)
	mcp := measureVMCell(RAM, workload.CopyMmap)
	scp := measureVMCell(RAM, workload.CopySplice)
	if mcp.kbs <= cp.kbs {
		t.Errorf("RAM mcp %.0f KB/s not above cp %.0f", mcp.kbs, cp.kbs)
	}
	if mcp.busy >= cp.busy {
		t.Errorf("RAM mcp CPU busy %v not below cp %v", mcp.busy, cp.busy)
	}
	// mmap still surfaces every byte to user space; splice must keep
	// the best CPU availability of the three.
	if scp.busy >= mcp.busy {
		t.Errorf("RAM scp CPU busy %v not below mcp %v", scp.busy, mcp.busy)
	}
	// The faults are the priced mechanism: 8MB through a 50-frame
	// pool must fault at least once per page of each file, read the
	// source in — exactly that: an allocating write fault on the
	// destination reads nothing — and page out the whole destination.
	if mcp.faults < 2048 || mcp.pageins != 1024 || mcp.pageouts < 1024 {
		t.Errorf("mcp VM activity wrong: faults=%d pageins=%d pageouts=%d",
			mcp.faults, mcp.pageins, mcp.pageouts)
	}
	if cp.faults != 0 || scp.faults != 0 {
		t.Errorf("cp/scp took page faults: %d/%d", cp.faults, scp.faults)
	}
	// On the RZ58 the drive sets the pace. The clock starts the write of
	// each dirty page it evicts, so mcp's destination writes overlap its
	// faults and it beats cp, whose delayed writes wait for the fsync;
	// splice still leads. Each destination page becomes a delayed write
	// exactly once.
	cp = measureVMCell(RZ58, workload.CopyReadWrite)
	mcp = measureVMCell(RZ58, workload.CopyMmap)
	scp = measureVMCell(RZ58, workload.CopySplice)
	if mcp.kbs <= cp.kbs || scp.kbs <= mcp.kbs {
		t.Errorf("RZ58: want cp %.0f < mcp %.0f < scp %.0f KB/s", cp.kbs, mcp.kbs, scp.kbs)
	}
	if mcp.pageouts != 1024 {
		t.Errorf("RZ58 mcp pageouts = %d, want 1024", mcp.pageouts)
	}
}

func TestShapeFsyncMethodologyMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	// The paper forces write-through for CP via fsync (§6.1). Without
	// it, cp on the RAM disk looks faster (its tail of delayed writes
	// lingers in memory, unmeasured) — confirming the methodology note
	// is load-bearing.
	s := DefaultSetup(RAM)
	withFsync := MeasureThroughput(s, workload.CopyReadWrite).ThroughputKBs()
	spec := workload.DefaultCopySpec(SrcPath, DstPath, workload.CopyReadWrite)
	spec.Fsync = false
	_, res := coldCopy(s, "copier", 7, spec)
	withoutFsync := res.ThroughputKBs()
	if withoutFsync <= withFsync {
		t.Errorf("cp without fsync (%.0f) not faster than with (%.0f); write-through methodology has no effect",
			withoutFsync, withFsync)
	}
}
