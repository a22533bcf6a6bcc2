// Package machine is the one place a simulated workstation is put
// together and taken apart: a kernel, a buffer cache, a page pool,
// and disks that each carry a filesystem. The facade (package
// kdp), the experiment harness (bench) and the checker (simcheck) all
// build with New and mount with Boot, so the bring-up order and its two
// cross-links — disk → cache (a disk is inert until attached) and
// kernel → pool — are written here and nowhere else, as are the verbs
// on a running machine: CheckInvariants, CheckDrained, PowerCut,
// Recover, Release.
package machine

import (
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/trace"
	"kdp/internal/vm"
)

// BlockSize is the machine's one block size: filesystem blocks, cache
// buffers and VM pages are all this big (a file page is its block's
// cache buffer, and a filesystem refuses a cache of another size).
const BlockSize = 8192

// Spec describes a machine to build.
type Spec struct {
	Kernel kernel.Config
	// CacheBufs sizes the buffer cache in BlockSize buffers, at least 4.
	// The page pool is sized from it: buf.HoldBudget(CacheBufs) resident
	// pages, since a resident file page holds a cache buffer.
	CacheBufs int
	Disks     []DiskSpec
}

// DiskSpec describes one disk and the filesystem it carries.
type DiskSpec struct {
	// Mount is where Boot mounts the filesystem.
	Mount string
	// Params is the device model. Params.Name must be unique on the
	// machine: the VM keys mapped objects by (device name, inode), and
	// fault sites, traces and metrics are per device name.
	Params disk.Params
	// Inodes sizes the inode table mkfs lays out.
	Inodes int
	// Interleave is the FFS allocation stride; 0 keeps the filesystem's
	// dense default.
	Interleave int
	// Readahead caps the per-file readahead window in blocks: 0 keeps
	// the filesystem default, negative disables readahead.
	Readahead int
}

// Machine is an assembled workstation. FSs[i] is the filesystem on
// Disks[i], nil until Boot mounts it.
type Machine struct {
	K     *kernel.Kernel
	Cache *buf.Cache
	Pool  *vm.Pool
	Disks []*disk.Disk
	FSs   []*fs.FS

	specs []DiskSpec
	devs  []buf.Device
}

// New builds the machine: kernel, cache, page pool, then each disk
// attached to the cache and formatted on the raw medium. Nothing runs
// and nothing is scheduled, drawn or traced; mounting needs process
// context and is Boot's job. It panics on a duplicate device name.
func New(s Spec) *Machine {
	k := kernel.New(s.Kernel)
	m := &Machine{
		K:     k,
		Cache: buf.NewCache(k, s.CacheBufs, BlockSize),
		Pool:  vm.NewPool(k, buf.HoldBudget(s.CacheBufs), BlockSize),
		FSs:   make([]*fs.FS, len(s.Disks)),
		specs: s.Disks,
	}
	k.SetVM(m.Pool)
	for _, ds := range s.Disks {
		for _, d := range m.Disks {
			if d.DevName() == ds.Params.Name {
				panic("machine: duplicate device name " + ds.Params.Name)
			}
		}
		d := disk.New(k, ds.Params)
		d.SetCache(m.Cache)
		if _, err := fs.Mkfs(d, ds.Inodes); err != nil {
			panic("machine: mkfs " + ds.Params.Name + ": " + err.Error())
		}
		m.Disks = append(m.Disks, d)
		m.devs = append(m.devs, d)
	}
	return m
}

// Boot mounts every filesystem not yet mounted, from process context
// (the superblock read is real I/O). Calling it again is a no-op.
func (m *Machine) Boot(p *kernel.Proc) error {
	for i := range m.Disks {
		if m.FSs[i] != nil {
			continue
		}
		if err := m.mount(p, i); err != nil {
			return err
		}
	}
	return nil
}

// mount is the one mount path, for first boot and for recovery: read
// the superblock, apply the disk's layout and readahead policy, and
// (re)place the filesystem in the kernel's mount table.
func (m *Machine) mount(p *kernel.Proc, i int) error {
	f, err := fs.Mount(p.Ctx(), m.Cache, m.Disks[i])
	if err != nil {
		return err
	}
	s := m.specs[i]
	if s.Interleave != 0 {
		f.SetInterleave(s.Interleave)
	}
	if s.Readahead != 0 {
		f.SetReadahead(s.Readahead)
	}
	if dead := m.FSs[i]; dead != nil {
		dead.Release()
	}
	m.FSs[i] = f
	m.K.Mount(s.Mount, f)
	return nil
}

// Release ends the machine's life and gives its volume memory back: each
// platter (written blocks re-zeroed), the cache's slab and header tables
// and each filesystem's claim table (cleared) rest where the next New of
// these sizes draws them, as do the spare blocks its holders let go of
// (kernel.Spares). Afterwards disks and cache panic on use or Release,
// and CheckInvariants reports buf-released.
func (m *Machine) Release() {
	for _, d := range m.Disks {
		d.Release()
	}
	for _, f := range m.FSs {
		if f != nil {
			f.Release()
		}
	}
	m.Cache.Release()
	m.K.Spares().Rest()
}

// Devices returns the disks as buf.Devices (for workload.ColdStart).
func (m *Machine) Devices() []buf.Device { return m.devs }

// CheckInvariants validates every layer the machine owns — cache,
// kernel (with the splice descriptors and stream transports it tracks),
// disks, mounted filesystems, page pool — and returns the first
// violation. It does no I/O and never sleeps, so it can run at every
// scheduling boundary. Each catalog walks only when a generation it
// reads moved since its owner's last passing walk (kernel.Gen).
func (m *Machine) CheckInvariants() error {
	if err := m.Cache.CheckInvariants(); err != nil {
		return err
	}
	if err := m.K.CheckInvariants(); err != nil {
		return err
	}
	for _, d := range m.Disks {
		if err := d.CheckInvariants(); err != nil {
			return err
		}
	}
	for _, f := range m.FSs {
		if f == nil {
			continue
		}
		if err := f.CheckLive(); err != nil {
			return err
		}
	}
	return m.Pool.CheckInvariants()
}

// CheckDrained verifies that a machine run to idle is at rest: the
// kernel's poll state and tracked objects (kernel.Kernel.CheckDrained),
// then the page pool (every mapping unmapped, object released, frame free).
func (m *Machine) CheckDrained() error {
	if err := m.K.CheckDrained(); err != nil {
		return err
	}
	return m.Pool.CheckDrained()
}

// Cut is what a power cut cost one disk.
type Cut struct {
	Lost      int // delayed-write buffers the platter never saw
	Dropped   int // queued transfers that never started
	Discarded int // cached buffers thrown away, dirty or clean
}

// PowerCut pulls the plug. The machine must be quiescent — no in-core
// inode held, the page pool drained, no busy buffer (the cache panics
// on one) — or nothing is cut and the reason is returned. Per disk,
// queued transfers are dropped (their data never transferred) while a
// transfer already in progress is past the point of no return and is
// waited out; then every cached buffer is discarded. FSs[i] stays the
// dead in-core filesystem until Recover replaces it.
func (m *Machine) PowerCut(p *kernel.Proc) ([]Cut, error) {
	for i, f := range m.FSs {
		if f == nil {
			continue
		}
		if n := f.LiveInodes(); n != 0 {
			return nil, fmt.Errorf("%s not quiescent: %d in-core inode(s) held", m.specs[i].Mount, n)
		}
	}
	if err := m.Pool.CheckDrained(); err != nil {
		return nil, fmt.Errorf("page pool not quiescent: %w", err)
	}
	cuts := make([]Cut, len(m.Disks))
	for i, d := range m.Disks {
		cuts[i].Dropped = d.Crash()
	}
	for m.busy() {
		p.SleepFor(m.K.Config().TickDuration())
	}
	for i, d := range m.Disks {
		cuts[i].Lost, cuts[i].Discarded = m.Cache.Crash(d)
		m.K.TraceEmit(trace.KindFSCrash, 0, int64(cuts[i].Lost), int64(cuts[i].Dropped), d.DevName())
	}
	return cuts, nil
}

func (m *Machine) busy() bool {
	for _, d := range m.Disks {
		if d.Busy() {
			return true
		}
	}
	return false
}

// Repair runs the repairing fsck over disk i and then the plain fsck —
// a separate pass, the reference the repairer is judged against. A nil
// repair report means the repair pass itself failed with err; otherwise
// err, if any, is the checking pass's.
func (m *Machine) Repair(p *kernel.Proc, i int) (repair, check *fs.FsckReport, err error) {
	if repair, err = fs.FsckRepair(p.Ctx(), m.Cache, m.Disks[i]); err != nil {
		return nil, nil, err
	}
	check, err = fs.Fsck(p.Ctx(), m.Cache, m.Disks[i])
	return repair, check, err
}

// Recover brings disk i back after a power cut: repair, require the
// follow-up fsck clean, and remount in place of the dead in-core
// filesystem through the one mount path. The repair report is returned
// whenever the repair pass ran.
func (m *Machine) Recover(p *kernel.Proc, i int) (*fs.FsckReport, error) {
	at := m.specs[i].Mount
	rep, chk, err := m.Repair(p, i)
	switch {
	case rep == nil:
		return nil, fmt.Errorf("fsck-repair %s: %v", at, err)
	case err != nil:
		return rep, fmt.Errorf("post-repair fsck %s: %v", at, err)
	case !chk.Clean():
		return rep, fmt.Errorf("%s not clean after repair: %d problem(s), first: %s",
			at, len(chk.Problems), chk.Problems[0])
	}
	if err := m.mount(p, i); err != nil {
		return rep, fmt.Errorf("remount %s: %v", at, err)
	}
	return rep, nil
}
