// Package bench is the experiment harness: it builds the paper's
// measurement machine (DecStation 5000/200, 32MB memory, 3.2MB buffer
// cache, two disks of a chosen type) and regenerates every table of the
// evaluation section plus the ablation sweeps documented in
// EXPERIMENTS.md.
package bench

import (
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
	"kdp/internal/vm"
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
const BlockSize = 8192

// The measured machine's memory: a 3.2MB buffer cache, and a 2MB page
// pool for mmap'd file I/O — well under the 8MB working set, so the
// clock pageout is exercised.
const (
	cacheBufs = 400
	vmPages   = 256
)

// Machine is a booted experiment machine: two disks with a filesystem
// each, mounted at /src and /dst, and a VM page pool backing mmap'd
// file I/O.
type Machine struct {
	K     *kernel.Kernel
	Cache *buf.Cache
	Disks [2]*disk.Disk
	FSs   [2]*fs.FS
	pool  *vm.Pool
	setup Setup
}

// NewMachine builds and formats the machine (filesystems are created on
// the raw media; mounting happens in Boot).
func NewMachine(s Setup) *Machine {
	// Each disk holds the file plus slack. Mechanical disks use the
	// interleaved (rotdelay) layout, which spreads a file over twice its
	// size in physical blocks.
	diskBlocks := s.FileBytes/BlockSize*int64(s.interleave()) + 64
	cfg := kernel.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.MaxRunTime = 0
	k := kernel.New(cfg)
	if TraceSinkFactory != nil {
		if sink := TraceSinkFactory(s.Label); sink != nil {
			k.StartTrace(sink)
		}
	}
	m := &Machine{
		K:     k,
		Cache: buf.NewCache(k, cacheBufs, BlockSize),
		pool:  vm.NewPool(k, vmPages, BlockSize),
		setup: s,
	}
	k.SetVM(m.pool)
	for i := range m.Disks {
		dp := s.Disk.Params(diskBlocks, BlockSize)
		// Distinguish the two drives in traces and per-disk metrics.
		dp.Name = fmt.Sprintf("%s-%d", dp.Name, i)
		d := disk.New(k, dp)
		d.SetCache(m.Cache)
		if _, err := fs.Mkfs(d, 64); err != nil {
			panic("bench: mkfs: " + err.Error())
		}
		m.Disks[i] = d
	}
	return m
}

// Boot mounts both filesystems from process context; it must be called
// from the first process before any file access.
func (m *Machine) Boot(p *kernel.Proc) error {
	if m.FSs[0] != nil {
		return nil
	}
	mounts := []string{"/src", "/dst"}
	for i, d := range m.Disks {
		f, err := fs.Mount(p.Ctx(), m.Cache, d)
		if err != nil {
			return err
		}
		f.SetInterleave(m.setup.interleave())
		switch {
		case m.setup.ReadaheadMax > 0:
			f.SetReadahead(m.setup.ReadaheadMax)
		case m.setup.ReadaheadMax < 0:
			f.SetReadahead(0)
		}
		f.SetPager(m.pool)
		m.FSs[i] = f
		m.K.Mount(mounts[i], f)
	}
	return nil
}

// Run drives the machine to completion, panicking on simulator errors
// (experiments must not deadlock).
func (m *Machine) Run() {
	if err := m.K.Run(); err != nil {
		panic("bench: " + err.Error())
	}
}

// Devices returns the two disks as buf.Devices (for cold starts).
func (m *Machine) Devices() []buf.Device {
	return []buf.Device{m.Disks[0], m.Disks[1]}
}
