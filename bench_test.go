// Benchmarks regenerating the paper's evaluation. Each Benchmark runs
// the corresponding experiment in virtual time and reports the paper's
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces every table row (see EXPERIMENTS.md for paper-vs-measured
// values):
//
//	BenchmarkTable1*  — CPU availability factors (paper Table 1)
//	BenchmarkTable2*  — copy throughput, KB/s (paper Table 2)
//	BenchmarkAblation* — the design-choice sweeps from EXPERIMENTS.md
package kdp_test

import (
	"testing"

	"kdp/internal/bench"
	"kdp/internal/splice"
	"kdp/internal/workload"
)

// ---- Table 1: CPU availability factors, copying an 8MB file ----

func benchTable1(b *testing.B, kind bench.DiskKind) {
	b.ReportAllocs()
	var row bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows := bench.Table1([]bench.DiskKind{kind})
		row = rows[0]
	}
	b.ReportMetric(row.Fcp, "F_cp")
	b.ReportMetric(row.Fscp, "F_scp")
	b.ReportMetric(row.Improvement, "improvement")
}

func BenchmarkTable1RAM(b *testing.B)  { benchTable1(b, bench.RAM) }
func BenchmarkTable1RZ58(b *testing.B) { benchTable1(b, bench.RZ58) }
func BenchmarkTable1RZ56(b *testing.B) { benchTable1(b, bench.RZ56) }

// ---- Table 2: mean throughput, copying an 8MB file ----

func benchTable2(b *testing.B, kind bench.DiskKind) {
	b.ReportAllocs()
	var row bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows := bench.Table2([]bench.DiskKind{kind})
		row = rows[0]
	}
	b.ReportMetric(row.SCPKBs, "scp_KB/s")
	b.ReportMetric(row.CPKBs, "cp_KB/s")
	b.ReportMetric(row.PctImprove, "improve_%")
}

func BenchmarkTable2RAM(b *testing.B)  { benchTable2(b, bench.RAM) }
func BenchmarkTable2RZ58(b *testing.B) { benchTable2(b, bench.RZ58) }
func BenchmarkTable2RZ56(b *testing.B) { benchTable2(b, bench.RZ56) }

// ---- Ablation A: transfer-quantum sweep (the §4 size parameter) ----

func BenchmarkAblationQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out, err := bench.RunSweep("quantum", nil); err != nil || out == "" {
			b.Fatal(err)
		}
	}
}

// ---- Ablation B: flow-control watermark sweep (§5.5) ----

func BenchmarkAblationWatermark(b *testing.B) {
	var def, low float64
	for i := 0; i < b.N; i++ {
		s := bench.DefaultSetup(bench.RAM)
		defRes := bench.MeasureThroughput(s, workload.CopySplice)
		def = defRes.ThroughputKBs()
		lowSpec := workload.DefaultCopySpec("/src/bigfile", "/dst/copy", workload.CopySplice)
		lowSpec.SpliceOptions = splice.Options{ReadWatermark: 1, WriteWatermark: 1, RefillBatch: 1}
		low = measureSpliceVariant(s, lowSpec.SpliceOptions)
	}
	b.ReportMetric(def, "default_KB/s")
	b.ReportMetric(low, "watermark1_KB/s")
}

// ---- Ablation C: write-side buffer sharing (§5.4) ----

func BenchmarkAblationSharing(b *testing.B) {
	var sharedCPU, copiedCPU float64
	for i := 0; i < b.N; i++ {
		_, intrShared := bench.MeasureSharingVariant(false)
		_, intrCopied := bench.MeasureSharingVariant(true)
		sharedCPU = intrShared.Milliseconds()
		copiedCPU = intrCopied.Milliseconds()
	}
	b.ReportMetric(sharedCPU, "shared_intr_ms")
	b.ReportMetric(copiedCPU, "copying_intr_ms")
}

// ---- Ablation D: file-size sweep (§6.2 robustness claim) ----

func BenchmarkAblationFileSize(b *testing.B) {
	var r1, r8 float64
	for i := 0; i < b.N; i++ {
		s1 := bench.DefaultSetup(bench.RZ58)
		s1.FileBytes = 1 << 20
		r1 = ratioSCPoverCP(s1)
		s8 := bench.DefaultSetup(bench.RZ58)
		r8 = ratioSCPoverCP(s8)
	}
	b.ReportMetric(r1, "ratio_1MB")
	b.ReportMetric(r8, "ratio_8MB")
}

// ---- Ablation E: spliced vs user-level UDP relay (§5.1) ----

func BenchmarkAblationSocket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out, err := bench.RunSweep("socket", nil); err != nil || out == "" {
			b.Fatal(err)
		}
	}
}

// measureSpliceVariant measures splice throughput with explicit
// options on an 8MB RAM-disk copy.
func measureSpliceVariant(s bench.Setup, o splice.Options) float64 {
	res := bench.MeasureThroughputOpts(s, o)
	return res.ThroughputKBs()
}

func ratioSCPoverCP(s bench.Setup) float64 {
	scp := bench.MeasureThroughput(s, workload.CopySplice)
	cp := bench.MeasureThroughput(s, workload.CopyReadWrite)
	return scp.ThroughputKBs() / cp.ThroughputKBs()
}
