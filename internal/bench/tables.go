package bench

import (
	"fmt"
	"strings"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// SrcPath and DstPath are the experiment file names.
const (
	SrcPath = "/src/bigfile"
	DstPath = "/dst/copy"
)

// Must panics on a non-nil error: experiments must not fail.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustCopy runs one copy, panicking on failure.
func mustCopy(p *kernel.Proc, spec workload.CopySpec) workload.CopyResult {
	res, err := workload.Copy(p, spec)
	Must(err)
	return res
}

// ColdRun is the recipe every single-copy measurement shares: a process
// called name boots the machine, creates the source file (pattern seed
// fileSeed), brings both devices to the paper's cold-cache start and
// runs body; the machine is then driven to completion.
func (m *Machine) ColdRun(name string, fileSeed byte, body func(p *kernel.Proc)) {
	m.K.Spawn(name, func(p *kernel.Proc) {
		Must(m.Boot(p))
		Must(workload.MakeFile(p, SrcPath, m.setup.FileBytes, fileSeed))
		Must(workload.ColdStart(p, m.Cache, m.Devices()...))
		body(p)
	})
	m.Run()
}

// coldCopy is ColdRun with one copy as its body, on a machine built for
// it and released after: the run's trace counters and the copy's result.
func coldCopy(s Setup, name string, fileSeed byte, spec workload.CopySpec) (*trace.Metrics, workload.CopyResult) {
	m := NewMachine(s)
	defer m.Release()
	mt := m.metrics().Metrics()
	var res workload.CopyResult
	m.ColdRun(name, fileSeed, func(p *kernel.Proc) { res = mustCopy(p, spec) })
	return mt, res
}

// availRun is the Table 1 environment: a copier process boots the
// machine, creates the source file and copies it over and over along
// mode's data path (cold cache each round), while a test process —
// released once the file exists, so the measurement covers pure copy
// contention — runs testBody. The copier starts first so the load
// exists from the test's first operation, and stops when testBody
// returns.
func availRun(s Setup, mode workload.CopyMode, testBody func(p *kernel.Proc)) (rounds int) {
	m := NewMachine(s)
	defer m.Release()
	stop, ready := false, false
	m.K.Spawn("copier", func(p *kernel.Proc) {
		Must(m.Boot(p))
		Must(workload.MakeFile(p, SrcPath, s.FileBytes, 7))
		ready = true
		m.K.Wakeup(&ready)
		var err error
		rounds, _, err = workload.LoopCopy(p, workload.DefaultCopySpec(SrcPath, DstPath, mode), m.Cache, m.Devices(), &stop)
		Must(err)
	})
	m.K.Spawn("test", func(p *kernel.Proc) {
		for !ready {
			_ = p.Sleep(&ready, kernel.PWAIT)
		}
		testBody(p)
		stop = true
	})
	m.Run()
	return rounds
}

// MeasureIdle runs the CPU-bound test program alone and returns its
// elapsed time — the Table 1 baseline.
func MeasureIdle(s Setup) sim.Duration {
	if s.Label == "" {
		s.Label = fmt.Sprintf("idle/%s", s.Disk)
	}
	m := NewMachine(s)
	defer m.Release()
	var res workload.TestProgramResult
	m.K.Spawn("test", func(p *kernel.Proc) {
		Must(m.Boot(p))
		res = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
	})
	m.Run()
	return res.Elapsed
}

// AvailabilityResult is one Table 1 environment measurement.
type AvailabilityResult struct {
	TestElapsed sim.Duration
	CopyRounds  int
}

// MeasureAvailability runs the test program concurrently with a looping
// copy of the configured file (mode selects cp or scp) and reports the
// test program's elapsed time for its fixed set of operations.
func MeasureAvailability(s Setup, mode workload.CopyMode) AvailabilityResult {
	if s.Label == "" {
		s.Label = fmt.Sprintf("avail/%s/%s", mode, s.Disk)
	}
	var test workload.TestProgramResult
	rounds := availRun(s, mode, func(p *kernel.Proc) {
		test = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
	})
	return AvailabilityResult{TestElapsed: test.Elapsed, CopyRounds: rounds}
}

// MeasureThroughput performs a single cold-cache copy on an otherwise
// idle machine and reports the achieved throughput — one Table 2 cell.
func MeasureThroughput(s Setup, mode workload.CopyMode) workload.CopyResult {
	_, res := MeasureCopy(s, mode)
	return res
}

// MeasureCopy is MeasureThroughput with the run's trace counters.
func MeasureCopy(s Setup, mode workload.CopyMode) (*trace.Metrics, workload.CopyResult) {
	if s.Label == "" {
		s.Label = fmt.Sprintf("thrput/%s/%s", mode, s.Disk)
	}
	return coldCopy(s, "copier", 7, workload.DefaultCopySpec(SrcPath, DstPath, mode))
}

// Table1Row is one row of "CPU Availability Factors (Copying 8 MB
// File)".
type Table1Row struct {
	Disk        DiskKind
	Fcp         float64 // slowdown of the test program in the CP environment
	Fscp        float64 // slowdown in the SCP environment
	Improvement float64 // Fcp / Fscp
	PctImprove  float64 // (Improvement - 1) * 100
}

// Table1 regenerates the paper's Table 1 for the given disk types.
func Table1(disks []DiskKind) []Table1Row {
	rows := make([]Table1Row, 0, len(disks))
	for _, d := range disks {
		s := DefaultSetup(d)
		idle := MeasureIdle(s)
		cp := MeasureAvailability(s, workload.CopyReadWrite)
		scp := MeasureAvailability(s, workload.CopySplice)
		r := Table1Row{
			Disk: d,
			Fcp:  float64(cp.TestElapsed) / float64(idle),
			Fscp: float64(scp.TestElapsed) / float64(idle),
		}
		r.Improvement = r.Fcp / r.Fscp
		r.PctImprove = (r.Improvement - 1) * 100
		rows = append(rows, r)
	}
	return rows
}

// Table2Row is one row of "Mean Throughput Measurements (Copying 8 MB
// File)".
type Table2Row struct {
	Disk       DiskKind
	SCPKBs     float64
	CPKBs      float64
	PctImprove float64
}

// Table2 regenerates the paper's Table 2 for the given disk types.
func Table2(disks []DiskKind) []Table2Row {
	rows := make([]Table2Row, 0, len(disks))
	for _, d := range disks {
		s := DefaultSetup(d)
		scp := MeasureThroughput(s, workload.CopySplice)
		cp := MeasureThroughput(s, workload.CopyReadWrite)
		r := Table2Row{
			Disk:   d,
			SCPKBs: scp.ThroughputKBs(),
			CPKBs:  cp.ThroughputKBs(),
		}
		r.PctImprove = (r.SCPKBs/r.CPKBs - 1) * 100
		rows = append(rows, r)
	}
	return rows
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU Availability Factors (Copying 8 MB File)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n", "Disk", "F_cp", "F_scp", "Improvement", "%-Improve")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.2f %12.2f %12.2f %11.0f%%\n",
			r.Disk, r.Fcp, r.Fscp, r.Improvement, r.PctImprove)
	}
	return b.String()
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mean Throughput Measurements (Copying 8 MB File)\n")
	fmt.Fprintf(&b, "%-6s %16s %16s %14s\n", "Disk", "SCP (KB/s)", "CP (KB/s)", "%-Improve")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %16.0f %16.0f %13.0f%%\n", r.Disk, r.SCPKBs, r.CPKBs, r.PctImprove)
	}
	return b.String()
}
