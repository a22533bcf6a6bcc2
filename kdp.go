// Package kdp — Kernel Data Paths — is a deterministic, virtual-time
// reproduction of the system described in Fall & Pasquale, "Exploiting
// In-Kernel Data Paths to Improve I/O Throughput and CPU Availability"
// (USENIX Winter 1993): a UNIX kernel mechanism, splice(), that
// establishes fast in-kernel data pathways between I/O objects named by
// file descriptors, moving data asynchronously and without user-process
// intervention.
//
// The package simulates a 1992-class workstation (DecStation 5000/200
// class) in virtual time: a kernel with processes, a priority scheduler
// and the callout list; a 4.2BSD buffer cache; an FFS-style filesystem;
// mechanical SCSI disk models (DEC RZ56 and RZ58) and a RAM disk;
// datagram sockets over a simulated Ethernet; and character devices
// (DACs, a framebuffer). On top of that substrate, Splice implements
// the paper's mechanism exactly: per-file physical block tables built
// by successive bmap() calls, asynchronous reads with B_CALL completion
// handlers, write-side dispatch through the callout list, memory-less
// write headers that alias the read buffer's data area, and rate-based
// flow control with the paper's 3/5/5 watermarks.
//
// A machine is built with New, populated with processes via Spawn, and
// driven to completion with Run; everything inside runs determinstically
// in virtual time:
//
//	m := kdp.New(kdp.Config{
//		Disks: []kdp.DiskSpec{
//			{Mount: "/d0", Kind: kdp.DiskRZ58},
//			{Mount: "/d1", Kind: kdp.DiskRZ58},
//		},
//	})
//	m.Spawn("copy", func(p *kdp.Proc) {
//		src, _ := p.Open("/d0/movie", kdp.ORdOnly)
//		dst, _ := p.Open("/d1/copy", kdp.OCreat|kdp.OWrOnly)
//		n, _ := kdp.Splice(p, src, dst, kdp.SpliceEOF)
//		_ = n
//	})
//	if err := m.Run(); err != nil { ... }
package kdp

import (
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/server"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
	"kdp/internal/stream"
	"kdp/internal/vm"
	"kdp/internal/workload"
)

// Re-exported core types. Proc is the simulated process handle passed
// to every process body; its methods are the system-call interface
// (Open, Read, Write, Lseek, Fcntl, Fsync, Close, Pause, SetITimer,
// Compute, Mmap, Munmap, Msync, ...).
type (
	// Proc is a simulated process.
	Proc = kernel.Proc
	// Signal is a UNIX-style signal number.
	Signal = kernel.Signal
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
	// Time is a point in virtual time.
	Time = sim.Time
	// SpliceOptions tunes splice flow control (zero value = the
	// paper's defaults: watermarks 3 and 5, refill batch 5).
	SpliceOptions = splice.Options
	// SpliceHandle observes an asynchronous splice.
	SpliceHandle = splice.Handle
	// SpliceStats counts one splice's activity.
	SpliceStats = splice.Stats
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Open flags, fcntl commands and whence values (see the kernel
// package).
const (
	ORdOnly = kernel.ORdOnly
	OWrOnly = kernel.OWrOnly
	ORdWr   = kernel.ORdWr
	OCreat  = kernel.OCreat
	OTrunc  = kernel.OTrunc
	OAppend = kernel.OAppend

	FSetFL = kernel.FSetFL
	FGetFL = kernel.FGetFL
	FAsync = kernel.FAsync

	SeekSet = kernel.SeekSet
	SeekCur = kernel.SeekCur
	SeekEnd = kernel.SeekEnd
)

// Mmap protection and mapping-type flags (see Proc.Mmap; the VM
// subsystem is docs/VM.md).
const (
	ProtRead   = kernel.ProtRead
	ProtWrite  = kernel.ProtWrite
	MapShared  = kernel.MapShared
	MapPrivate = kernel.MapPrivate
)

// Signals.
const (
	SIGIO   = kernel.SIGIO
	SIGALRM = kernel.SIGALRM
)

// Sleep priorities (for Proc.Sleep; values above PZero are
// signal-interruptible).
const (
	PZero = kernel.PZERO
	PWait = kernel.PWAIT
	PSlep = kernel.PSLEP
)

// SpliceEOF requests a splice until end of file (the paper's
// SPLICE_EOF).
const SpliceEOF = splice.EOF

// Common errors.
var (
	ErrNoEnt       = kernel.ErrNoEnt
	ErrBadFD       = kernel.ErrBadFD
	ErrInval       = kernel.ErrInval
	ErrExist       = kernel.ErrExist
	ErrIntr        = kernel.ErrIntr
	ErrNoSpace     = kernel.ErrNoSpace
	ErrConnRefused = kernel.ErrConnRefused
	ErrTimedOut    = kernel.ErrTimedOut
	ErrNoMem       = kernel.ErrNoMem
)

// DiskKind selects a device model.
type DiskKind = disk.Kind

// The three device types measured in the paper.
const (
	DiskRAM  = disk.KindRAM
	DiskRZ58 = disk.KindRZ58
	DiskRZ56 = disk.KindRZ56
)

// ParseDisk returns the device model called name (RAM, RZ58 or RZ56,
// case-insensitive).
func ParseDisk(name string) (DiskKind, error) { return disk.ParseKind(name) }

// DiskSpec describes one disk with a freshly formatted filesystem,
// mounted at Mount.
type DiskSpec struct {
	Mount string
	Kind  DiskKind
	// MB is the disk capacity in megabytes (default 16, the paper's
	// RAM disk size).
	MB int
	// Interleave overrides the FFS allocation stride; 0 selects 2 for
	// mechanical disks and 1 (dense) for the RAM disk.
	Interleave int
}

// Config describes a machine.
type Config struct {
	// Disks lists the block devices (each formatted and mounted).
	Disks []DiskSpec
	// CacheMB sizes the buffer cache in megabytes (default 3.2MB, the
	// measured system's cache — stored as 8KB buffers).
	CacheMB float64
	// Seed makes the machine's PRNG deterministic (default 1).
	Seed uint64
	// MaxRunTime aborts runaway simulations; zero means unlimited.
	MaxRunTime Duration
}

// BlockSize is the filesystem and buffer-cache block size.
const BlockSize = machine.BlockSize

// Machine is a booted simulated workstation.
type Machine struct {
	m *machine.Machine
}

// New builds a machine: devices are created and formatted, and the
// filesystems are mounted by a short-lived init process.
func New(cfg Config) *Machine {
	spec := machine.Spec{Kernel: kernel.DefaultConfig()}
	if cfg.Seed != 0 {
		spec.Kernel.Seed = cfg.Seed
	}
	spec.Kernel.MaxRunTime = cfg.MaxRunTime

	cacheMB := cfg.CacheMB
	if cacheMB <= 0 {
		cacheMB = 3.2
	}
	spec.CacheBufs = int(cacheMB * 1024 * 1024 / BlockSize)

	for i, d := range cfg.Disks {
		mb := d.MB
		if mb <= 0 {
			mb = 16
		}
		ds := machine.DiskSpec{
			Mount:      d.Mount,
			Params:     d.Kind.Params(int64(mb)<<20/BlockSize, BlockSize),
			Inodes:     256,
			Interleave: d.Interleave,
		}
		ds.Params.Name = fmt.Sprintf("%s-%d", ds.Params.Name, i)
		if ds.Interleave == 0 {
			ds.Interleave = d.Kind.Interleave()
		}
		spec.Disks = append(spec.Disks, ds)
	}
	m := machine.New(spec)

	// Mount everything from an init process before user processes run.
	if len(cfg.Disks) > 0 {
		m.K.Spawn("init", func(p *kernel.Proc) {
			if err := m.Boot(p); err != nil {
				panic("kdp: mount: " + err.Error())
			}
		})
		if err := m.K.Run(); err != nil {
			panic("kdp: boot: " + err.Error())
		}
	}
	return &Machine{m}
}

// Spawn adds a process to the machine; it runs when Run is called.
func (m *Machine) Spawn(name string, body func(*Proc)) *Proc {
	return m.m.K.Spawn(name, body)
}

// Run drives the machine until every process has exited and all
// in-kernel work (async splices, device queues) has drained.
func (m *Machine) Run() error { return m.m.K.Run() }

// Now returns the machine's virtual time.
func (m *Machine) Now() Time { return m.m.K.Now() }

// Kernel exposes the underlying kernel (stats, tracing, advanced use).
func (m *Machine) Kernel() *kernel.Kernel { return m.m.K }

// BufferCache exposes the machine's buffer cache.
func (m *Machine) BufferCache() *buf.Cache { return m.m.Cache }

// Disk returns the i'th configured disk.
func (m *Machine) Disk(i int) *disk.Disk { return m.m.Disks[i] }

// FS returns the filesystem mounted from the i'th disk.
func (m *Machine) FS(i int) *fs.FS { return m.m.FSs[i] }

// VMPool exposes the machine's page pool, which keeps an eighth of the
// cache's buffers resident as mapped file pages (buf.HoldBudget).
func (m *Machine) VMPool() *vm.Pool { return m.m.Pool }

// ColdCaches flushes and invalidates every cached disk block, giving
// the cold-start condition the paper's measurements require. Must be
// called from process context.
func (m *Machine) ColdCaches(p *Proc) error {
	return workload.ColdStart(p, m.m.Cache, m.m.Devices()...)
}

// Splice is the paper's system call: move size bytes (or SpliceEOF for
// the rest of the source) between the objects open on srcFD and dstFD
// entirely inside the kernel. With FASYNC set on either descriptor the
// call returns immediately and SIGIO announces completion; otherwise it
// blocks and returns the count moved.
func Splice(p *Proc, srcFD, dstFD int, size int64) (int64, error) {
	return splice.Splice(p, srcFD, dstFD, size)
}

// SpliceWithOptions is Splice with explicit flow-control options and an
// observation handle.
func SpliceWithOptions(p *Proc, srcFD, dstFD int, size int64, o SpliceOptions) (int64, *SpliceHandle, error) {
	return splice.SpliceOpts(p, srcFD, dstFD, size, o)
}

// ---- device and network helpers ----

// DACConfig configures a rate-paced output device (audio or video DAC):
// Path is the device special file (e.g. "/dev/speaker"), Rate the
// playback rate in bytes per second, BufBytes the device staging buffer
// (default 64KB), and Capture retains played bytes for inspection.
type DACConfig = dev.DACParams

// AddDAC attaches a rate-paced output DAC and registers its device
// file.
func (m *Machine) AddDAC(cfg DACConfig) *dev.DAC { return dev.NewDAC(m.m.K, cfg) }

// AddNull attaches /dev/null.
func (m *Machine) AddNull() *dev.Null { return dev.NewNull(m.m.K) }

// FramebufferConfig configures a frame-capture device.
type FramebufferConfig struct {
	Path       string
	FrameBytes int
	FPS        float64
	Frames     int // 0 = unbounded
}

// AddFramebuffer attaches a frame source (for framebuffer-to-socket
// splices).
func (m *Machine) AddFramebuffer(cfg FramebufferConfig) *dev.Framebuffer {
	return dev.NewFramebuffer(m.m.K, dev.FBParams{
		Path: cfg.Path, FrameBytes: cfg.FrameBytes, FPS: cfg.FPS, Frames: cfg.Frames,
	})
}

// AddPipe attaches an in-kernel pipe (bounded byte queue) that works as
// both a splice source and sink, so spliced pathways can be chained
// (file → pipe → socket). capacity 0 selects 64KB. path may be empty
// for an anonymous pipe (use InstallFile on the returned object).
func (m *Machine) AddPipe(path string, capacity int) *dev.Pipe {
	return dev.NewPipe(m.m.K, path, capacity)
}

// NetKind selects a network model.
type NetKind int

// Network models.
const (
	NetEthernet10 NetKind = iota // 10Mb/s shared Ethernet
	NetLoopback                  // fast in-machine delivery
)

// AddNet creates a simulated network on the machine.
func (m *Machine) AddNet(kind NetKind) *socket.Net {
	switch kind {
	case NetLoopback:
		return socket.NewNet(m.m.K, socket.Loopback())
	default:
		return socket.NewNet(m.m.K, socket.Ethernet10())
	}
}

// ---- stream transport and file-server engine ----

// Re-exported stream/server types. A StreamTransport is a TCP-lite
// endpoint multiplexing reliable connections onto one datagram port;
// connection descriptors returned by its Accept/Connect syscalls are
// ordinary files (Read/Write/Close) and splice endpoints.
type (
	// StreamTransport is a reliable stream endpoint bound to one port.
	StreamTransport = stream.Transport
	// StreamConn is one reliable, flow-controlled stream connection.
	StreamConn = stream.Conn
	// Server is the concurrent file-server engine.
	Server = server.Server
	// ServerConfig configures a file server (see server.Config).
	ServerConfig = server.Config
	// ServerMode selects the serving data path: copy or splice.
	ServerMode = server.Mode
)

// File-server data paths: per-request read/write copying through user
// space, or a single in-kernel splice per request.
const (
	ServeCopy   = server.ModeCopy
	ServeSplice = server.ModeSplice
)

// AddStreamTransport binds a reliable stream-transport endpoint to
// port on net. Its Listen/Accept/Connect methods are kernel syscalls
// (call them from process context).
func (m *Machine) AddStreamTransport(net *socket.Net, port int) (*StreamTransport, error) {
	return stream.NewTransport(m.m.K, net, port)
}

// StartServer launches the concurrent file-server engine: an accept
// loop that hands each connection to a spawned handler process.
func (m *Machine) StartServer(cfg ServerConfig) *Server {
	return server.Start(m.m.K, cfg)
}
