// Command scp runs a single file copy on a simulated machine and
// reports timing — the splice-based copy program of the paper's
// experiments, with the read/write copier available for comparison.
//
// Usage:
//
//	scp [-disk RAM|RZ58|RZ56] [-mb 8] [-mode scp|cp|both]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kdp/internal/bench"
	"kdp/internal/disk"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "scp:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, runs the requested
// copies, and writes results to out.
func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("scp", flag.ContinueOnError)
	fl.SetOutput(out)
	diskName := fl.String("disk", bench.RAM.String(), "disk type: "+disk.KindNames())
	mb := fl.Int64("mb", 8, "file size in megabytes")
	mode := fl.String("mode", "both", "copy mode: scp, cp or both")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}

	kind, err := disk.ParseKind(*diskName)
	if err != nil {
		return err
	}
	var modes []workload.CopyMode
	for _, m := range []workload.CopyMode{workload.CopySplice, workload.CopyReadWrite} {
		if *mode == "both" || *mode == m.String() {
			modes = append(modes, m)
		}
	}
	if len(modes) == 0 {
		return fmt.Errorf("unknown mode %q", *mode)
	}

	s := bench.DefaultSetup(kind)
	s.FileBytes = *mb << 20

	for _, m := range modes {
		mt, res := bench.MeasureCopy(s, m)
		fmt.Fprintf(out, "%-4s %2dMB on %-5s: %10v  %8.0f KB/s",
			m, *mb, kind, res.Elapsed, res.ThroughputKBs())
		if m == workload.CopySplice {
			fmt.Fprintf(out, "  (reads=%d writes=%d shared=%d callouts=%d)",
				mt.EventCount[trace.KindSpliceRead], mt.EventCount[trace.KindSpliceWrite],
				res.Splice.Shared, res.Splice.Callouts)
		}
		fmt.Fprintln(out)
	}
	return nil
}
