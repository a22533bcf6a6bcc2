// Command kdptrace runs a small splice scenario with structured kernel
// tracing enabled and renders the event stream, showing the in-kernel
// data path at work: reads completing at interrupt level, write sides
// dispatched from the callout list, flow-control refills, and the
// calling process sleeping the whole time.
//
// The text output is one renderer over the typed event stream from
// internal/trace; -stats prints the aggregated counter snapshot, and
// -json exports the full run in Chrome trace-event format for Perfetto.
//
// Usage:
//
//	kdptrace [-disk RZ58] [-kb 64] [-mcp] [-n 40] [-stats] [-json out.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kdp/internal/bench"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/server"
	"kdp/internal/sim"
	"kdp/internal/splice"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "kdptrace:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, runs the traced
// splice, and writes the report and trace lines to out.
func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("kdptrace", flag.ContinueOnError)
	fl.SetOutput(out)
	diskName := fl.String("disk", bench.RZ58.String(), "disk type: "+disk.KindNames())
	kb := fl.Int64("kb", 64, "file size in kilobytes")
	limit := fl.Int("n", 40, "maximum trace lines to print (negative = all, 0 = none)")
	stats := fl.Bool("stats", false, "print the counter snapshot instead of trace lines")
	mcp := fl.Bool("mcp", false, "trace the mmap copy (mcp) instead of the splice: page faults, pageins, pageouts")
	jsonOut := fl.String("json", "", "export the full run as Chrome trace-event JSON to this file")
	serverN := fl.Int("server", 0, "trace the server scenario at this fan-out instead of the splice: one section per engine/mode of the server grid")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	if *serverN > 0 {
		return runServer(*serverN, *stats, out)
	}

	kind, err := disk.ParseKind(*diskName)
	if err != nil {
		return err
	}

	s := bench.DefaultSetup(kind)
	s.FileBytes = *kb << 10
	m := bench.NewMachine(s)

	col := &trace.Collector{}
	tr := m.K.StartTrace(col)

	var st splice.Stats
	var res workload.CopyResult
	var usr, sys sim.Duration
	var nsys, nvol, ninv int64
	spliceFrom := 0
	mode := workload.CopySplice
	if *mcp {
		mode = workload.CopyMmap
	}
	m.ColdRun(mode.String(), 1, func(p *kernel.Proc) {
		defer func() {
			usr, sys = p.UserTime(), p.SysTime()
			nsys = p.Syscalls()
			nvol, ninv = p.ContextSwitches()
		}()
		spliceFrom = len(col.Events) // trace lines cover only the copy itself
		if *mcp {
			var err error
			res, err = workload.Copy(p, workload.DefaultCopySpec(bench.SrcPath, bench.DstPath, mode))
			bench.Must(err)
			return
		}
		src, _ := p.Open(bench.SrcPath, kernel.ORdOnly)
		dst, _ := p.Open(bench.DstPath, kernel.OCreat|kernel.OWrOnly)
		_, h, err := splice.SpliceOpts(p, src, dst, splice.EOF, splice.Options{})
		bench.Must(err)
		st = h.Stats()
	})

	mm := tr.Metrics()
	if *mcp {
		fmt.Fprintf(out, "mcp of %dKB on %s: bytes=%d faults=%d pageins=%d pageouts=%d cows=%d\n",
			*kb, kind, res.Bytes, mm.VMFaults, mm.VMPageins, mm.VMPageouts, mm.VMCows)
	} else {
		fmt.Fprintf(out, "splice of %dKB on %s: reads=%d writes=%d shared=%d callouts=%d peak=%d/%d\n",
			*kb, kind, mm.EventCount[trace.KindSpliceRead], mm.EventCount[trace.KindSpliceWrite],
			st.Shared, st.Callouts, mm.SplicePeakReads, mm.SplicePeakWrites)
	}
	kst := m.K.Stats()
	fmt.Fprintf(out, "process rusage: user=%v sys=%v syscalls=%d ctxsw=%d/%d (vol/invol)\n",
		usr, sys, nsys, nvol, ninv)
	fmt.Fprintf(out, "machine: interrupts=%d intr-cpu=%v switches=%d idle=%v\n\n",
		kst.Interrupts, kst.Interrupt, kst.Switches, kst.Idle)

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("kdptrace %dKB %s", *kb, kind)
		if err := trace.ExportChrome(f, []trace.Run{{Label: label, Events: col.Events}}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d events to %s (load in Perfetto / chrome://tracing)\n\n",
			len(col.Events), *jsonOut)
	}

	if *stats {
		tr.Metrics().Format(out)
		return nil
	}

	// Text renderer: the splice window of the event stream, skipping the
	// high-volume CPU accounting kinds (see -stats for those, totalled).
	var lines []string
	for _, ev := range col.Events[spliceFrom:] {
		switch ev.Kind {
		case trace.KindCPUUser, trace.KindCPUSys, trace.KindCPUIntr,
			trace.KindCPUIdle, trace.KindCPUSwitch:
			continue
		}
		lines = append(lines, fmt.Sprintf("%12v  %s", ev.T, ev))
	}
	n := len(lines)
	if *limit >= 0 && n > *limit {
		n = *limit
	}
	for _, l := range lines[:n] {
		fmt.Fprintln(out, l)
	}
	if n < len(lines) {
		mcpFlag := ""
		if *mcp {
			mcpFlag = " -mcp"
		}
		fmt.Fprintf(out, "... (%d more trace lines; rerun with: kdptrace -disk %s -kb %d%s -n -1)\n",
			len(lines)-n, kind, *kb, mcpFlag)
	}
	return nil
}

// runServer traces the server-scalability scenario at one fan-out,
// one section per engine/mode. With -stats each section carries the
// full counter snapshot (poll returns, readiness dispatches, splice
// pipeline, stream retransmits); without it, just the request totals.
func runServer(clients int, stats bool, out io.Writer) error {
	for _, path := range server.Paths {
		col := &trace.Collector{}
		cell, tr := bench.MeasureServer(clients, path.Engine, path.Mode, col)
		fmt.Fprintf(out, "== %d clients, %s: %d request(s) ==\n",
			cell.Clients, path.Label, cell.Requests)
		if stats {
			tr.Metrics().Format(out)
			fmt.Fprintln(out)
		}
	}
	if !stats {
		fmt.Fprintln(out, "(rerun with -stats for per-mode counter snapshots)")
	}
	return nil
}
