package bench

import (
	"fmt"
	"strings"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/workload"
)

// AvailabilitySeries is a time series of the test program's CPU share,
// sampled in fixed windows while a copy runs — the "figure view" of
// Table 1's scalar slowdown factors.
type AvailabilitySeries struct {
	Window sim.Duration
	Share  []float64 // fraction of each window the test program computed
}

// MeasureAvailabilitySeries runs the CPU-bound test program against a
// looping copy (as MeasureAvailability does) and reports its per-window
// CPU share over the first `windows` windows.
func MeasureAvailabilitySeries(s Setup, mode workload.CopyMode, window sim.Duration, windows int) AvailabilitySeries {
	var opTimes []sim.Time
	var start sim.Time
	availRun(s, mode, func(p *kernel.Proc) {
		start = p.Now()
		deadline := start.Add(sim.Duration(windows) * window)
		for p.Now() < deadline {
			p.Compute(s.TestOpCost)
			opTimes = append(opTimes, p.Now())
		}
	})

	series := AvailabilitySeries{Window: window, Share: make([]float64, windows)}
	for _, t := range opTimes {
		idx := int(t.Sub(start) / window)
		if idx >= 0 && idx < windows {
			series.Share[idx] += s.TestOpCost.Seconds()
		}
	}
	for i := range series.Share {
		series.Share[i] /= window.Seconds()
		if series.Share[i] > 1 {
			series.Share[i] = 1
		}
	}
	return series
}

// FormatSeries renders CP-vs-SCP availability series side by side with
// text bars.
func FormatSeries(window sim.Duration, cp, scp AvailabilitySeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Test-program CPU share per %v window during an 8MB copy\n", window)
	fmt.Fprintf(&b, "%-8s %-28s %-28s\n", "window", "CP environment", "SCP environment")
	bar := func(v float64) string {
		n := int(v*20 + 0.5)
		return fmt.Sprintf("%5.0f%% %s", v*100, strings.Repeat("#", n))
	}
	n := len(cp.Share)
	if len(scp.Share) < n {
		n = len(scp.Share)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-8d %-28s %-28s\n", i, bar(cp.Share[i]), bar(scp.Share[i]))
	}
	return b.String()
}

// RunSeries produces the availability time-series view for one disk
// type (the kdpbench -series entry point).
func RunSeries(kind DiskKind) string {
	s := DefaultSetup(kind)
	const window = 500 * sim.Millisecond
	const windows = 10
	cp := MeasureAvailabilitySeries(s, workload.CopyReadWrite, window, windows)
	scp := MeasureAvailabilitySeries(s, workload.CopySplice, window, windows)
	return fmt.Sprintf("Disk: %v\n%s", kind, FormatSeries(window, cp, scp))
}
