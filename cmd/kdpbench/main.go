// Command kdpbench regenerates the paper's evaluation: Table 1 (CPU
// availability factors) and Table 2 (copy throughput) for the RAM, RZ58
// and RZ56 device types, plus the ablation sweeps listed in
// EXPERIMENTS.md.
//
// Usage:
//
//	kdpbench                  # both tables
//	kdpbench -table 1         # CPU availability only
//	kdpbench -table 2         # throughput only
//	kdpbench -sweep quantum   # one of bench.Sweeps (-h lists them)
//	kdpbench -series          # per-window availability timeline
//	kdpbench -disks RAM,RZ58  # restrict device types
//	kdpbench -trace out.json  # also export every machine's event
//	                          # stream as Chrome trace-event JSON
//	kdpbench -validate f.json # schema-check an exported trace and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kdp/internal/bench"
	"kdp/internal/disk"
	"kdp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "kdpbench:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, runs the requested
// benchmarks, and writes results to out.
func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("kdpbench", flag.ContinueOnError)
	fl.SetOutput(out)
	table := fl.Int("table", 0, "regenerate only this table (1 or 2; 0 = both)")
	sweep := fl.String("sweep", "", "run an ablation sweep: "+bench.SweepNames())
	series := fl.Bool("series", false, "print the per-window availability time series instead of tables")
	csvOut := fl.Bool("csv", false, "emit tables as CSV (for plotting)")
	disks := fl.String("disks", disk.KindNames(), "comma-separated device types")
	traceOut := fl.String("trace", "", "export every machine's event stream as Chrome trace-event JSON to this file")
	validate := fl.String("validate", "", "validate a previously exported trace file and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := trace.ValidateChrome(f)
		if err != nil {
			return fmt.Errorf("%s: %w", *validate, err)
		}
		fmt.Fprintf(out, "%s: valid Chrome trace, %d events\n", *validate, n)
		return nil
	}

	kinds, err := parseDisks(*disks)
	if err != nil {
		return err
	}

	var traced []tracedRun
	if *traceOut != "" {
		// One collector per machine the experiments build; events fill in
		// as each machine runs, and everything is exported at the end.
		bench.TraceSinkFactory = func(label string) trace.Sink {
			col := &trace.Collector{}
			traced = append(traced, tracedRun{label: label, col: col})
			return col
		}
		defer func() { bench.TraceSinkFactory = nil }()
		defer func() {
			if err := exportTraced(*traceOut, traced); err != nil {
				fmt.Fprintln(os.Stderr, "kdpbench: trace export:", err)
			}
		}()
	}

	if *series {
		for _, kind := range kinds {
			fmt.Fprint(out, bench.RunSeries(kind))
			fmt.Fprintln(out)
		}
		return nil
	}

	if *sweep != "" {
		res, err := bench.RunSweep(*sweep, kinds)
		if err != nil {
			return err
		}
		fmt.Fprint(out, res)
		return nil
	}

	if *table == 0 || *table == 1 {
		rows := bench.Table1(kinds)
		if *csvOut {
			fmt.Fprintln(out, "table,disk,f_cp,f_scp,improvement,pct_improve")
			for _, r := range rows {
				fmt.Fprintf(out, "1,%s,%.4f,%.4f,%.4f,%.1f\n", r.Disk, r.Fcp, r.Fscp, r.Improvement, r.PctImprove)
			}
		} else {
			fmt.Fprint(out, bench.FormatTable1(rows))
			fmt.Fprintln(out)
		}
	}
	if *table == 0 || *table == 2 {
		rows := bench.Table2(kinds)
		if *csvOut {
			fmt.Fprintln(out, "table,disk,scp_kbs,cp_kbs,pct_improve")
			for _, r := range rows {
				fmt.Fprintf(out, "2,%s,%.1f,%.1f,%.1f\n", r.Disk, r.SCPKBs, r.CPKBs, r.PctImprove)
			}
		} else {
			fmt.Fprint(out, bench.FormatTable2(rows))
		}
	}
	return nil
}

// tracedRun pairs one machine's label with its event collector.
type tracedRun struct {
	label string
	col   *trace.Collector
}

// exportTraced writes every traced machine run to path as one Chrome
// trace-event JSON document (one "process" per run).
func exportTraced(path string, traced []tracedRun) error {
	runs := make([]trace.Run, 0, len(traced))
	for _, tr := range traced {
		runs = append(runs, trace.Run{Label: tr.label, Events: tr.col.Events})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ExportChrome(f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseDisks resolves a comma-separated list of device type names; an
// empty list selects every type.
func parseDisks(s string) ([]bench.DiskKind, error) {
	var kinds []bench.DiskKind
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		kind, err := disk.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		kinds = disk.Kinds()
	}
	return kinds, nil
}
