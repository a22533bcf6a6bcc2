// Package bench is the experiment harness: it builds the paper's
// measurement machine (DecStation 5000/200, 32MB memory, 3.2MB buffer
// cache, two disks of a chosen type) and regenerates every table of the
// evaluation section plus the ablation sweeps documented in
// EXPERIMENTS.md.
package bench

import (
	"fmt"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// TraceSinkFactory, when non-nil, is consulted once per NewMachine: a
// non-nil returned sink is installed on the new kernel before anything
// runs, so every machine an experiment builds is traced. The label is
// Setup.Label (the experiment's name for the machine). kdpbench -trace
// uses this to collect one event stream per table cell.
var TraceSinkFactory func(label string) trace.Sink

// DiskKind selects one of the paper's three device types; the names,
// models and default layouts live in disk's kind table.
type DiskKind = disk.Kind

// The measured device types.
const (
	RAM  = disk.KindRAM
	RZ58 = disk.KindRZ58
	RZ56 = disk.KindRZ56
)

// Setup configures one experiment machine.
type Setup struct {
	Disk DiskKind
	// FileBytes is the copied file's size (the paper uses 8MB).
	FileBytes int64
	// Seed makes runs reproducible.
	Seed uint64
	// TestOps and TestOpCost define the CPU-bound test program's fixed
	// set of operations.
	TestOps    int
	TestOpCost sim.Duration
	// Interleave overrides the FFS allocation stride; 0 selects the
	// device default (2 for mechanical disks, 1 for the RAM disk).
	Interleave int
	// ReadaheadMax overrides the filesystems' adaptive readahead window
	// cap in blocks: 0 keeps the fs default (one block ahead, the
	// measured system's 4.3BSD behavior), positive values permit deeper
	// windows, negative values disable readahead entirely. The cache
	// sweep uses this for its readahead on/off comparison.
	ReadaheadMax int
	// Label names this machine's run in exported traces (see
	// TraceSinkFactory). The Measure* helpers fill it in when empty.
	Label string
}

// interleave resolves the FFS allocation stride: the override, or the
// device type's default.
func (s Setup) interleave() int {
	if s.Interleave != 0 {
		return s.Interleave
	}
	return s.Disk.Interleave()
}

// DefaultSetup returns the paper's configuration for a disk type.
func DefaultSetup(k DiskKind) Setup {
	return Setup{
		Disk:       k,
		FileBytes:  8 << 20,
		Seed:       1,
		TestOps:    600,
		TestOpCost: 10 * sim.Millisecond, // 6s of pure compute
	}
}

// BlockSize is the filesystem and buffer-cache block size.
const BlockSize = machine.BlockSize

// cacheBufs is the measured machine's memory: a 3.2MB buffer cache, an
// eighth of which is the page pool for mmap'd file I/O (machine.New) —
// well under the 8MB working set, so the clock pageout is exercised.
const cacheBufs = 400

// Machine is an experiment machine: two disks with a filesystem each,
// mounted at /src and /dst by Boot (which must be called from the first
// process before any file access), and a VM page pool backing mmap'd
// file I/O.
type Machine struct {
	*machine.Machine
	setup Setup
}

// NewMachine builds and formats the machine (filesystems are created on
// the raw media; mounting happens in Boot).
func NewMachine(s Setup) *Machine {
	spec := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: cacheBufs}
	spec.Kernel.Seed = s.Seed
	spec.Kernel.MaxRunTime = 0
	// Each disk holds the file plus slack. Mechanical disks use the
	// interleaved (rotdelay) layout, which spreads a file over twice its
	// size in physical blocks.
	diskBlocks := s.FileBytes/BlockSize*int64(s.interleave()) + 64
	for i, mount := range []string{"/src", "/dst"} {
		ds := machine.DiskSpec{
			Mount:      mount,
			Params:     s.Disk.Params(diskBlocks, BlockSize),
			Inodes:     64,
			Interleave: s.interleave(),
			Readahead:  s.ReadaheadMax,
		}
		// Distinguish the two drives in traces and per-disk metrics.
		ds.Params.Name = fmt.Sprintf("%s-%d", ds.Params.Name, i)
		spec.Disks = append(spec.Disks, ds)
	}
	m := &Machine{Machine: machine.New(spec), setup: s}
	if TraceSinkFactory != nil {
		if sink := TraceSinkFactory(s.Label); sink != nil {
			m.K.StartTrace(sink)
		}
	}
	return m
}

// Run drives the machine to completion, panicking on simulator errors
// (experiments must not deadlock) and, on a traced machine, unless the
// trace's CPU classes add up to the run's virtual time.
func (m *Machine) Run() {
	if err := m.K.Run(); err != nil {
		panic("bench: " + err.Error())
	}
	Must(m.K.CheckClock())
}
