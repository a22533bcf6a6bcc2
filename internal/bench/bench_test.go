package bench

import (
	"bytes"
	"strings"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/splice"
	"kdp/internal/workload"
)

// smallSetup keeps unit tests fast: 1MB files, short test program.
func smallSetup(k DiskKind) Setup {
	s := DefaultSetup(k)
	s.FileBytes = 1 << 20
	s.TestOps = 100
	s.TestOpCost = 10 * sim.Millisecond
	return s
}

func TestMeasureIdleIsPureCompute(t *testing.T) {
	s := smallSetup(RAM)
	idle := MeasureIdle(s)
	if idle != sim.Duration(s.TestOps)*s.TestOpCost {
		t.Fatalf("idle = %v, want exactly %v", idle, sim.Duration(s.TestOps)*s.TestOpCost)
	}
}

func TestAvailabilityOrdering(t *testing.T) {
	// The paper's core claim, at small scale: idle < scp-slowdown <
	// cp-slowdown on every device type.
	for _, kind := range disk.Kinds() {
		s := smallSetup(kind)
		idle := MeasureIdle(s)
		cp := MeasureAvailability(s, workload.CopyReadWrite)
		scp := MeasureAvailability(s, workload.CopySplice)
		if cp.TestElapsed <= idle || scp.TestElapsed <= idle {
			t.Fatalf("%v: contended runs not slower than idle (%v, %v vs %v)",
				kind, cp.TestElapsed, scp.TestElapsed, idle)
		}
		if scp.TestElapsed >= cp.TestElapsed {
			t.Fatalf("%v: splice environment (%v) not better than cp environment (%v)",
				kind, scp.TestElapsed, cp.TestElapsed)
		}
		if cp.CopyRounds < 1 {
			t.Fatalf("%v: copier never completed a round", kind)
		}
	}
}

func TestThroughputOrdering(t *testing.T) {
	// Splice beats read/write everywhere; the gap is large on the RAM
	// disk and small on mechanical disks. This holds for files larger
	// than the buffer cache (as in the paper): with a small file, cp's
	// delayed writes all pile into the final fsync and distort the
	// mechanical-disk ratios.
	ratios := map[DiskKind]float64{}
	for _, kind := range disk.Kinds() {
		s := DefaultSetup(kind)
		scp := MeasureThroughput(s, workload.CopySplice)
		cp := MeasureThroughput(s, workload.CopyReadWrite)
		if scp.Bytes != s.FileBytes || cp.Bytes != s.FileBytes {
			t.Fatalf("%v: short copy: %d/%d", kind, scp.Bytes, cp.Bytes)
		}
		r := scp.ThroughputKBs() / cp.ThroughputKBs()
		if r <= 1 {
			t.Fatalf("%v: splice (%0.f) not faster than cp (%0.f)",
				kind, scp.ThroughputKBs(), cp.ThroughputKBs())
		}
		ratios[kind] = r
	}
	if ratios[RAM] <= ratios[RZ58] || ratios[RAM] <= ratios[RZ56] {
		t.Fatalf("RAM ratio (%.2f) should dominate mechanical ratios (%.2f, %.2f)",
			ratios[RAM], ratios[RZ58], ratios[RZ56])
	}
}

func TestRAMDiskFasterThanMechanical(t *testing.T) {
	s := smallSetup(RAM)
	ram := MeasureThroughput(s, workload.CopySplice)
	s2 := smallSetup(RZ56)
	rz := MeasureThroughput(s2, workload.CopySplice)
	if ram.ThroughputKBs() <= rz.ThroughputKBs() {
		t.Fatalf("RAM (%.0f) not faster than RZ56 (%.0f)", ram.ThroughputKBs(), rz.ThroughputKBs())
	}
}

func TestRZ58FasterThanRZ56(t *testing.T) {
	for _, mode := range []workload.CopyMode{workload.CopyReadWrite, workload.CopySplice} {
		fast := MeasureThroughput(smallSetup(RZ58), mode)
		slow := MeasureThroughput(smallSetup(RZ56), mode)
		if fast.ThroughputKBs() <= slow.ThroughputKBs() {
			t.Fatalf("%v: RZ58 (%.0f) not faster than RZ56 (%.0f)",
				mode, fast.ThroughputKBs(), slow.ThroughputKBs())
		}
	}
}

func TestMeasurementsAreDeterministic(t *testing.T) {
	a := MeasureThroughput(smallSetup(RZ58), workload.CopySplice)
	b := MeasureThroughput(smallSetup(RZ58), workload.CopySplice)
	if a.Elapsed != b.Elapsed || a.Bytes != b.Bytes {
		t.Fatalf("repeated measurements diverged: %v/%v vs %v/%v",
			a.Elapsed, a.Bytes, b.Elapsed, b.Bytes)
	}
	i1 := MeasureIdle(smallSetup(RAM))
	i2 := MeasureIdle(smallSetup(RAM))
	if i1 != i2 {
		t.Fatalf("idle measurements diverged: %v vs %v", i1, i2)
	}
}

func TestTableFormatting(t *testing.T) {
	t1 := FormatTable1([]Table1Row{{Disk: RAM, Fcp: 2, Fscp: 1.25, Improvement: 1.6, PctImprove: 60}})
	if !strings.Contains(t1, "RAM") || !strings.Contains(t1, "1.60") {
		t.Fatalf("table 1 format:\n%s", t1)
	}
	t2 := FormatTable2([]Table2Row{{Disk: RZ58, SCPKBs: 900, CPKBs: 800, PctImprove: 12.5}})
	if !strings.Contains(t2, "RZ58") || !strings.Contains(t2, "900") {
		t.Fatalf("table 2 format:\n%s", t2)
	}
}

func TestMeasureThroughputOptsHonorsNoShare(t *testing.T) {
	s := smallSetup(RAM)
	res := MeasureThroughputOpts(s, splice.Options{NoShare: true})
	if res.Splice.Copied == 0 || res.Splice.Shared != 0 {
		t.Fatalf("NoShare not honored: %+v", res.Splice)
	}
}

func TestMeasureSharingVariantCPUDifference(t *testing.T) {
	_, sharedIntr := MeasureSharingVariant(false)
	_, copiedIntr := MeasureSharingVariant(true)
	if copiedIntr <= sharedIntr {
		t.Fatalf("copying write side (%v) should steal more CPU than sharing (%v)",
			copiedIntr, sharedIntr)
	}
}

func TestAvailabilitySeriesShape(t *testing.T) {
	s := smallSetup(RAM)
	window := 250 * sim.Millisecond
	cp := MeasureAvailabilitySeries(s, workload.CopyReadWrite, window, 6)
	scp := MeasureAvailabilitySeries(s, workload.CopySplice, window, 6)
	if len(cp.Share) != 6 || len(scp.Share) != 6 {
		t.Fatalf("series lengths %d/%d", len(cp.Share), len(scp.Share))
	}
	avg := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	aCP, aSCP := avg(cp.Share), avg(scp.Share)
	if aSCP <= aCP {
		t.Fatalf("series: SCP share (%.2f) not above CP share (%.2f)", aSCP, aCP)
	}
	for i, v := range append(append([]float64{}, cp.Share...), scp.Share...) {
		if v < 0 || v > 1 {
			t.Fatalf("share %d out of range: %v", i, v)
		}
	}
	out := FormatSeries(window, cp, scp)
	if !strings.Contains(out, "CP environment") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestRunSweepUnknownName(t *testing.T) {
	if _, err := RunSweep("bogus", nil); err == nil {
		t.Fatal("unknown sweep accepted")
	}
}

func TestDiskKindStringsAndParams(t *testing.T) {
	for _, k := range disk.Kinds() {
		if k.String() == "" || strings.Contains(k.String(), "DiskKind") {
			t.Fatalf("bad name for %d", int(k))
		}
		p := k.Params(128, BlockSize)
		if p.Blocks != 128 || p.BlockSize != BlockSize {
			t.Fatalf("%v params wrong", k)
		}
	}
	if RAM.Interleave() != 1 || RZ58.Interleave() != 2 {
		t.Fatal("interleave defaults wrong")
	}
}

// shape boots m and reports the facts a builder encodes: cache size,
// per-disk device name, mount point (by creating a file there) and
// inode count.
func shape(t *testing.T, m *machine.Machine, mounts ...string) (nbuf int, names []string, inodes []uint32) {
	t.Helper()
	m.K.Spawn("shape", func(p *kernel.Proc) {
		Must(m.Boot(p))
		for _, mount := range mounts {
			fd, err := p.Open(mount+"/probe", kernel.OCreat|kernel.OWrOnly)
			if err != nil {
				t.Errorf("nothing mounted at %s: %v", mount, err)
				continue
			}
			p.Close(fd)
		}
	})
	Must(m.K.Run())
	for i, d := range m.Disks {
		names = append(names, d.DevName())
		inodes = append(inodes, m.FSs[i].Super().NInodes)
	}
	return m.Cache.NumBuffers(), names, inodes
}

// TestMachineShapes pins what NewMachine and the server machine ask the
// one assembler for.
func TestMachineShapes(t *testing.T) {
	paper := NewMachine(DefaultSetup(RZ58))
	nbuf, names, inodes := shape(t, paper.Machine, "/src", "/dst")
	if nbuf != 400 || strings.Join(names, ",") != "rz58-0,rz58-1" || inodes[0] != 64 || inodes[1] != 64 {
		t.Errorf("paper machine: %d buffers, disks %v, inodes %v", nbuf, names, inodes)
	}
	if paper.Pool.Frames() != 50 {
		t.Errorf("paper machine: %d-page pool, want an eighth of 400 buffers", paper.Pool.Frames())
	}
	if got := paper.Disks[0].DevBlocks(); got != 8<<20/BlockSize*2+64 {
		t.Errorf("paper machine: %d blocks per disk", got)
	}

	srv := serverMachine()
	nbuf, names, inodes = shape(t, srv, "/srv")
	if nbuf != 400 || strings.Join(names, ",") != "ram" || inodes[0] != 64 || srv.Pool.Frames() != 50 {
		t.Errorf("server machine: %d buffers, disks %v, inodes %v, %d-page pool", nbuf, names, inodes, srv.Pool.Frames())
	}
}

// TestServerMachineMapsPastItsPool: the server machine's Spec names no
// page pool, yet it gets one, an eighth of its cache, and a file larger
// than that pool maps and reads back, the clock evicting as it goes.
func TestServerMachineMapsPastItsPool(t *testing.T) {
	m := serverMachine()
	defer m.Release()
	npages := m.Pool.Frames() + 14
	want := make([]byte, npages*BlockSize)
	for i := range want {
		want[i] = byte(i % 251)
	}
	got := make([]byte, len(want))
	tr := m.K.StartTrace(nil)
	m.K.Spawn("mapper", func(p *kernel.Proc) {
		Must(m.Boot(p))
		fd, err := p.Open("/srv/big", kernel.OCreat|kernel.ORdWr)
		Must(err)
		_, err = p.Write(fd, want)
		Must(err)
		addr, err := p.Mmap(fd, 0, int64(len(want)), kernel.ProtRead, kernel.MapShared)
		Must(err)
		Must(p.MemRead(addr, got))
		Must(p.Munmap(addr))
		Must(p.Close(fd))
	})
	Must(m.K.Run())
	if !bytes.Equal(got, want) {
		t.Error("a file larger than the pool reads back wrong through its mapping")
	}
	if faults := tr.Metrics().VMFaults; faults < int64(npages) {
		t.Errorf("%d faults over %d pages", faults, npages)
	}
	if err := m.CheckDrained(); err != nil {
		t.Error(err)
	}
}
