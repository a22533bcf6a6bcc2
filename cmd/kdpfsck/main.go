// Command kdpfsck builds a volume, runs a workload against it
// (optionally injecting media corruption), and then checks the
// filesystem's consistency — demonstrating the offline checker in
// internal/fs.
//
// Usage:
//
//	kdpfsck                  # clean volume after a copy workload
//	kdpfsck -corrupt leak    # inject a corruption first: leak, crosslink
//	kdpfsck -corrupt crosslink -repair   # repair the damage, then re-check
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"kdp/internal/bench"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/workload"
)

// errInconsistent reports a volume that fsck found problems with; the
// process exits 1 (as fsck traditionally does) rather than 2 for a
// usage error.
var errInconsistent = errors.New("volume inconsistent")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case err == flag.ErrHelp:
		os.Exit(0)
	case errors.Is(err, errInconsistent):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "kdpfsck:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, runs the workload and
// checker, and writes the report to out.
func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("kdpfsck", flag.ContinueOnError)
	fl.SetOutput(out)
	corrupt := fl.String("corrupt", "", "inject corruption before checking: leak or crosslink")
	repair := fl.Bool("repair", false, "repair inconsistencies (fsck -p style), then re-check")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	switch *corrupt {
	case "", "leak", "crosslink":
	default:
		return fmt.Errorf("unknown corruption %q", *corrupt)
	}

	s := bench.DefaultSetup(bench.RAM)
	s.FileBytes = 2 << 20
	m := bench.NewMachine(s)

	var rep, repRepair *fs.FsckReport
	m.ColdRun("fsck", 1, func(p *kernel.Proc) {
		// Exercise the volume: create, copy, delete.
		_, err := workload.Copy(p, workload.DefaultCopySpec(bench.SrcPath, bench.DstPath, workload.CopySplice))
		bench.Must(err)
		bench.Must(p.Unlink(bench.DstPath))
		bench.Must(m.FSs[0].SyncAll(p.Ctx()))
		bench.Must(m.Cache.InvalidateDev(p.Ctx(), m.Disks[0]))

		switch *corrupt {
		case "leak":
			// Mark a block near the end of the volume (past the test
			// file's allocation) as in-use without any referent.
			markBitmap(m, m.FSs[0].Super().TotalBlocks-5, true)
		case "crosslink":
			crossLink(m)
		}
		if *corrupt != "" {
			bench.Must(m.Cache.InvalidateDev(p.Ctx(), m.Disks[0]))
		}

		rep, err = fs.Fsck(p.Ctx(), m.Cache, m.Disks[0])
		bench.Must(err)
		if *repair && !rep.Clean() {
			repRepair, rep, err = m.Repair(p, 0)
			bench.Must(err)
		}
	})

	if repRepair != nil {
		fmt.Fprintf(out, "repair: %d problem(s) found, %d fix(es) applied\n",
			len(repRepair.Problems), repRepair.Repaired)
		for _, p := range repRepair.Problems {
			fmt.Fprintln(out, "  -", p)
		}
	}
	fmt.Fprintf(out, "volume: %d inodes (%d files, %d dirs), %d blocks in use\n",
		rep.Inodes, rep.Files, rep.Dirs, rep.UsedBlocks)
	if rep.Clean() {
		fmt.Fprintln(out, "clean: no inconsistencies found")
		return nil
	}
	fmt.Fprintf(out, "INCONSISTENT: %d problem(s)\n", len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Fprintln(out, "  -", p)
	}
	return errInconsistent
}

// markBitmap flips a bitmap bit directly on the media.
func markBitmap(m *bench.Machine, blk uint32, set bool) {
	sb := m.FSs[0].Super()
	raw := make([]byte, sb.BlockSize)
	bitsPerBlk := int(sb.BlockSize) * 8
	bmBlk := int64(sb.BitmapStart) + int64(int(blk)/bitsPerBlk)
	m.Disks[0].ReadRaw(bmBlk, raw)
	bit := int(blk) % bitsPerBlk
	if set {
		raw[bit/8] |= 1 << uint(bit%8)
	} else {
		raw[bit/8] &^= 1 << uint(bit%8)
	}
	m.Disks[0].WriteRaw(bmBlk, raw)
}

// crossLink points the second file inode's first block at the first
// file's block, simulating media corruption.
func crossLink(m *bench.Machine) {
	sb := m.FSs[0].Super()
	raw := make([]byte, sb.BlockSize)
	m.Disks[0].ReadRaw(int64(sb.ITableStart), raw)
	// Inode 2 is the source file. Duplicate its first pointer into inode 3's
	// slot and mark inode 3 allocated with one block.
	copy(raw[3*fs.InodeSize:4*fs.InodeSize], raw[2*fs.InodeSize:3*fs.InodeSize])
	m.Disks[0].WriteRaw(int64(sb.ITableStart), raw)
}
