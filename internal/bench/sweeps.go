package bench

import (
	"fmt"
	"strings"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// Sweep is one named experiment beyond the paper's two tables.
type Sweep struct {
	Name string
	// Title is the report's first line.
	Title string
	// run appends the report's rows; disks is the -disks selection, for
	// the sweeps that walk device types.
	run func(b *strings.Builder, disks []DiskKind)
}

// Sweeps is the one ordered registry of sweeps: RunSweep, kdpbench's
// -sweep help, the unknown-name error and the lists in README.md and
// EXPERIMENTS.md all derive from it, so a new sweep is one entry.
var Sweeps = []Sweep{
	{"quantum", "Ablation A: transfer quantum (4MB file, RZ58, repeated sync splices)", sweepQuantum},
	{"watermark", "Ablation B: flow-control watermarks (8MB file, RAM disk)", sweepWatermark},
	{"sharing", "Ablation C: write-side buffer sharing (8MB file, RAM disk)", sweepSharing},
	{"filesize", "Ablation D: file-size sweep (cold cache)", sweepFileSize},
	{"socket", "Ablation E: UDP relay, spliced vs user-level (10Mb/s Ethernet)", sweepSocket},
	{"rate", "Ablation F: kernel-paced splice (4MB file, RZ58)", sweepRate},
	{"layout", "Ablation G: FFS allocation layout (4MB file, RZ58)", sweepLayout},
	{"server", "Server scalability (128 KB cached file, 10Mb Ethernet, concurrent test program)", sweepServer},
	{"cache", "Ablation H: adaptive readahead (4MB file, RZ58, cold cache)", sweepCache},
	{"vm", fmt.Sprintf("Ablation I: mmap vs read vs splice (8MB file, cold cache, %d-frame page pool)", buf.HoldBudget(cacheBufs)), sweepVM},
	{"batch", "Ablation J: syscall aggregation (4MB file, RZ58, cold cache)", sweepBatch},
}

// SweepNames returns the registered sweep names, comma-separated in
// registry order.
func SweepNames() string {
	names := make([]string, len(Sweeps))
	for i, sw := range Sweeps {
		names[i] = sw.Name
	}
	return strings.Join(names, ", ")
}

// RunSweep executes a named sweep and returns its formatted report.
func RunSweep(name string, disks []DiskKind) (string, error) {
	for _, sw := range Sweeps {
		if sw.Name == name {
			var b strings.Builder
			fmt.Fprintln(&b, sw.Title)
			sw.run(&b, disks)
			return b.String(), nil
		}
	}
	return "", fmt.Errorf("unknown sweep %q (want %s)", name, SweepNames())
}

// metrics returns the machine's tracer, starting a sink-less one
// (counters only) when no trace export is active. Call before the
// machine runs.
func (m *Machine) metrics() *trace.Tracer {
	if tr := m.K.Tracer(); tr != nil {
		return tr
	}
	return m.K.StartTrace(nil)
}

// busy returns the total CPU the machine's run consumed (wall clock
// minus idle): at equal work, less busy time means more CPU left for
// other processes — the paper's availability currency — and it compares
// fairly between runs of different lengths, where an idle percentage
// would not.
func (m *Machine) busy() sim.Duration {
	st := m.K.Stats()
	return st.Now.Sub(0) - st.Idle
}

// smallRZ58 is the 4MB-file RZ58 machine most ablations run on.
func smallRZ58() Setup {
	s := DefaultSetup(RZ58)
	s.FileBytes = 4 << 20
	return s
}

// pctOver returns by what percentage a's throughput exceeds b's.
func pctOver(a, b workload.CopyResult) float64 {
	return (a.ThroughputKBs()/b.ThroughputKBs() - 1) * 100
}

// sweepBatch is the syscall-aggregation ablation: the same 4MB cold
// copy as cp (one crossing per 8KB read or write), cpv (readv/writev,
// one crossing per 4-iovec vector), bcp (reads and writes aggregated
// through Submit), and scp (splice, no per-block crossings at all).
// Bytes moved are identical across rows; what varies is how many times
// the copier traps into the kernel (counted around the copy alone), the
// crossings aggregation saved, and the trap + copy-setup CPU that
// aggregation returns to the availability budget.
func sweepBatch(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-5s %12s %12s %10s %10s %12s\n",
		"Mode", "KB/s", "CPU busy", "Syscalls", "Saved", "Bytes")
	for _, mode := range []workload.CopyMode{
		workload.CopyReadWrite, workload.CopyVectored,
		workload.CopyBatched, workload.CopySplice,
	} {
		s := smallRZ58()
		s.Label = fmt.Sprintf("batch/%s", mode)
		m := NewMachine(s)
		tr := m.metrics()
		var res workload.CopyResult
		var calls int64
		m.ColdRun("bench", 3, func(p *kernel.Proc) {
			sys0 := p.Syscalls()
			res = mustCopy(p, workload.DefaultCopySpec(SrcPath, DstPath, mode))
			calls = p.Syscalls() - sys0
		})
		fmt.Fprintf(b, "%-5s %12.0f %11.2fs %10d %10d %12d\n",
			mode, res.ThroughputKBs(), m.busy().Seconds(), calls,
			tr.Metrics().BatchCrossingsSaved, res.Bytes)
		m.Release()
	}
}

// cacheCell is one cache-sweep measurement.
type cacheCell struct {
	kbs     float64
	busy    sim.Duration
	raHits  int64
	raWaste int64
}

// cachePatterns are the cache sweep's access patterns: a sequential
// user-space read loop (cp's read side), a file→file splice copy (scp),
// and seed-derived random reads.
var cachePatterns = []struct {
	name string
	run  func(p *kernel.Proc) (workload.CopyResult, error)
}{
	{"seq-read", func(p *kernel.Proc) (workload.CopyResult, error) {
		return workload.ReadSequential(p, SrcPath, 8192)
	}},
	{"splice", func(p *kernel.Proc) (workload.CopyResult, error) {
		return workload.Copy(p, workload.DefaultCopySpec(SrcPath, DstPath, workload.CopySplice))
	}},
	{"rand-read", func(p *kernel.Proc) (workload.CopyResult, error) {
		return workload.ReadRandom(p, SrcPath, 8192, 256, 11)
	}},
}

// measureCacheCell runs the named access pattern against a cold 4MB
// file on an RZ58 machine with the readahead cap set to ra.
func measureCacheCell(pattern string, ra int) cacheCell {
	s := smallRZ58()
	s.ReadaheadMax = ra
	s.Label = fmt.Sprintf("cache/%s/ra=%d", pattern, ra)
	m := NewMachine(s)
	defer m.Release()
	mt := m.metrics().Metrics()
	var res workload.CopyResult
	m.ColdRun("bench", 3, func(p *kernel.Proc) {
		for _, cp := range cachePatterns {
			if cp.name == pattern {
				var err error
				res, err = cp.run(p)
				Must(err)
				return
			}
		}
		panic("bench: unknown cache pattern " + pattern)
	})
	return cacheCell{kbs: res.ThroughputKBs(), busy: m.busy(), raHits: mt.BufRaHits, raWaste: mt.BufRaWaste}
}

// sweepCache measures the adaptive readahead engine: each access
// pattern runs with readahead disabled (off) and with a deep 8-block
// window (on). Sequential reads gain throughput at equal-or-better CPU
// availability — the asynchronous window overlaps disk latency the
// synchronous read loop otherwise eats — while the splice path is
// indifferent (its flow-controlled pipeline already keeps the device
// busy, §5.5) and random reads collapse the window, wasting nothing.
func sweepCache(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-10s %-4s %12s %12s %10s %10s\n", "Pattern", "RA", "KB/s", "CPU busy", "RA hits", "RA waste")
	for _, cp := range cachePatterns {
		for _, ra := range []int{-1, 8} {
			c := measureCacheCell(cp.name, ra)
			mode := "off"
			if ra > 0 {
				mode = fmt.Sprintf("%d", ra)
			}
			fmt.Fprintf(b, "%-10s %-4s %12.0f %11.2fs %10d %10d\n",
				cp.name, mode, c.kbs, c.busy.Seconds(), c.raHits, c.raWaste)
		}
	}
}

// vmCell is one mmap-vs-read-vs-splice measurement: copy throughput,
// total CPU consumed, and the VM activity behind it.
type vmCell struct {
	kbs      float64
	busy     sim.Duration
	faults   int64
	pageins  int64
	pageouts int64
}

// measureVMCell copies an 8MB file on a cold machine using the given
// mode: cp (read/write + fsync), mcp (mmap both files, user memcpy +
// msync), or scp (splice). The page pool is a quarter of the file, so
// mcp runs under memory pressure and the clock pageout is part of the
// measured path.
func measureVMCell(k DiskKind, mode workload.CopyMode) vmCell {
	s := DefaultSetup(k)
	s.Label = fmt.Sprintf("vm/%s/%s", k, mode)
	m := NewMachine(s)
	defer m.Release()
	tr := m.metrics()
	var res workload.CopyResult
	m.ColdRun("bench", 3, func(p *kernel.Proc) {
		res = mustCopy(p, workload.DefaultCopySpec(SrcPath, DstPath, mode))
	})
	mt := tr.Metrics()
	return vmCell{
		kbs:      res.ThroughputKBs(),
		busy:     m.busy(),
		faults:   mt.VMFaults,
		pageins:  mt.VMPageins,
		pageouts: mt.VMPageouts,
	}
}

// sweepVM is the mmap-vs-read-vs-splice ablation: the same 8MB cold
// copy through the three data paths. cp pays two kernel copies plus a
// syscall per 8KB; mcp pays priced page faults and one user-level
// bcopy, with dirty mapped pages written back through the shared
// buffer cache; scp never surfaces the data to user space at all.
func sweepVM(b *strings.Builder, disks []DiskKind) {
	fmt.Fprintf(b, "%-6s %-5s %12s %12s %10s %10s %10s\n",
		"Disk", "Mode", "KB/s", "CPU busy", "Faults", "Pageins", "Pageouts")
	for _, d := range disks {
		for _, mode := range []workload.CopyMode{workload.CopyReadWrite, workload.CopyMmap, workload.CopySplice} {
			c := measureVMCell(d, mode)
			fmt.Fprintf(b, "%-6s %-5s %12.0f %11.2fs %10d %10d %10d\n",
				d, mode, c.kbs, c.busy.Seconds(), c.faults, c.pageins, c.pageouts)
		}
	}
}

// sweepLayout varies the FFS allocation interleave — the "block
// allocation strategies" the paper lists as future work. Dense
// (interleave 1) allocation lets both copy paths stream at media rate;
// the era's rotdelay layout (interleave 2) halves sequential bandwidth,
// which is the regime the paper measured.
func sweepLayout(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-12s %14s %14s %10s\n", "Interleave", "SCP KB/s", "CP KB/s", "%-Improve")
	for _, il := range []int{1, 2, 3} {
		s := smallRZ58()
		s.Interleave = il
		scp := MeasureThroughput(s, workload.CopySplice)
		cp := MeasureThroughput(s, workload.CopyReadWrite)
		fmt.Fprintf(b, "%-12d %14.0f %14.0f %9.0f%%\n",
			il, scp.ThroughputKBs(), cp.ThroughputKBs(), pctOver(scp, cp))
	}
}

// sweepRate exercises the kernel-paced splice (the continuous-media
// extension): a 4MB transfer is paced at several target rates; the
// achieved rate should track the target closely until it hits the
// device's ceiling.
func sweepRate(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-14s %14s %12s\n", "Target KB/s", "Achieved KB/s", "Elapsed")
	for _, target := range []float64{0, 128 << 10, 256 << 10, 512 << 10, 2 << 20} {
		res := MeasureThroughputOpts(smallRZ58(), splice.Options{RateBytesPerSec: target})
		label := "unpaced"
		if target > 0 {
			label = fmt.Sprintf("%.0f", target/1024)
		}
		fmt.Fprintf(b, "%-14s %14.0f %12v\n", label, res.ThroughputKBs(), res.Elapsed)
	}
}

// sweepQuantum measures how the per-call transfer quantum (the size
// parameter, §4's rate-control knob) affects elapsed time: smaller
// quanta mean more system calls and more process wakeups for the same
// bytes. The one sweep whose body is not a workload copy: it drives
// splice directly, one call per quantum.
func sweepQuantum(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-10s %12s %14s %10s\n", "Quantum", "Elapsed", "KB/s", "Syscalls")
	for _, q := range []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, splice.EOF} {
		s := smallRZ58()
		var elapsed sim.Duration
		var calls int64
		m := NewMachine(s)
		m.ColdRun(workload.CopySplice.String(), 3, func(p *kernel.Proc) {
			src, _ := p.Open(SrcPath, kernel.ORdOnly)
			dst, _ := p.Open(DstPath, kernel.OCreat|kernel.OWrOnly)
			t0 := p.Now()
			sys0 := p.Syscalls()
			for {
				n, err := splice.Splice(p, src, dst, q)
				Must(err)
				if n == 0 || q == splice.EOF {
					break
				}
			}
			elapsed = p.Now().Sub(t0)
			calls = p.Syscalls() - sys0
		})
		m.Release()
		label := "EOF"
		if q != splice.EOF {
			label = fmt.Sprintf("%dKB", q>>10)
		}
		kbs := float64(s.FileBytes) / 1024 / elapsed.Seconds()
		fmt.Fprintf(b, "%-10s %12v %14.0f %10d\n", label, elapsed, kbs, calls)
	}
}

// sweepWatermark varies the flow-control watermarks (§5.5, defaults 3
// reads / 5 writes / refill 5) and reports RAM-disk splice throughput:
// too little in-flight I/O starves the pipeline; the defaults keep both
// devices busy.
func sweepWatermark(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-18s %14s %12s %12s\n", "read/write/refill", "KB/s", "PeakReads", "PeakWrites")
	for _, o := range []splice.Options{
		{ReadWatermark: 1, WriteWatermark: 1, RefillBatch: 1},
		{ReadWatermark: 2, WriteWatermark: 2, RefillBatch: 2},
		{ReadWatermark: 3, WriteWatermark: 5, RefillBatch: 5}, // the paper's values
		{ReadWatermark: 6, WriteWatermark: 10, RefillBatch: 10},
		{ReadWatermark: 12, WriteWatermark: 20, RefillBatch: 20},
	} {
		mt, res := spliceCopy(DefaultSetup(RAM), o)
		fmt.Fprintf(b, "%2d/%2d/%2d           %14.0f %12d %12d\n",
			o.ReadWatermark, o.WriteWatermark, o.RefillBatch,
			res.ThroughputKBs(), mt.SplicePeakReads, mt.SplicePeakWrites)
	}
}

// sweepSharing compares the paper's write-side data aliasing (§5.4, no
// copy between cache buffers) against a copying write side. Throughput
// barely moves on the RAM disk — the pipeline is callout-tick bound —
// but the extra kernel bcopy shows up directly as stolen (interrupt)
// CPU, which is exactly the availability the aliasing buys back.
func sweepSharing(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-10s %14s %16s %10s %10s\n", "Mode", "KB/s", "InterruptCPU", "Shared", "Copied")
	for _, noShare := range []bool{false, true} {
		res, intr := MeasureSharingVariant(noShare)
		mode := "shared"
		if noShare {
			mode = "copying"
		}
		fmt.Fprintf(b, "%-10s %14.0f %16v %10d %10d\n",
			mode, res.ThroughputKBs(), intr, res.Splice.Shared, res.Splice.Copied)
	}
}

// spliceCopy runs one cold splice copy on s with explicit splice
// options, returning the run's trace counters with the result.
func spliceCopy(s Setup, o splice.Options) (*trace.Metrics, workload.CopyResult) {
	spec := workload.DefaultCopySpec(SrcPath, DstPath, workload.CopySplice)
	spec.SpliceOptions = o
	return coldCopy(s, spec.Mode.String(), 3, spec)
}

// MeasureSharingVariant runs an 8MB RAM-disk splice copy with or
// without write-side data aliasing, returning the copy result and the
// machine's total interrupt-level CPU time.
func MeasureSharingVariant(noShare bool) (workload.CopyResult, sim.Duration) {
	mt, res := spliceCopy(DefaultSetup(RAM), splice.Options{NoShare: noShare})
	return res, mt.CPUIntr
}

// MeasureThroughputOpts is MeasureThroughput for splice copies with
// explicit flow-control options.
func MeasureThroughputOpts(s Setup, o splice.Options) workload.CopyResult {
	_, res := spliceCopy(s, o)
	return res
}

// sweepFileSize copies files of several sizes and reports cp vs scp
// throughput — the paper notes alternative sizes were "statistically
// indistinguishable from the 8MB representative case" (§6.2).
func sweepFileSize(b *strings.Builder, disks []DiskKind) {
	fmt.Fprintf(b, "%-6s %8s %14s %14s %10s\n", "Disk", "MB", "SCP KB/s", "CP KB/s", "%-Improve")
	for _, d := range disks {
		for _, mb := range []int64{1, 2, 4, 8, 16} {
			s := DefaultSetup(d)
			s.FileBytes = mb << 20
			scp := MeasureThroughput(s, workload.CopySplice)
			cp := MeasureThroughput(s, workload.CopyReadWrite)
			fmt.Fprintf(b, "%-6s %8d %14.0f %14.0f %9.0f%%\n",
				d, mb, scp.ThroughputKBs(), cp.ThroughputKBs(), pctOver(scp, cp))
		}
	}
}

// sweepSocket compares a splice-based UDP relay against a user-level
// read/write relay over the simulated Ethernet: same network, different
// data path. Reports relay throughput and the CPU the relay consumed.
func sweepSocket(b *strings.Builder, _ []DiskKind) {
	fmt.Fprintf(b, "%-10s %12s %14s %16s\n", "Relay", "Elapsed", "KB/s", "Relay CPU")
	const ndgrams = 512
	const dsize = 8192
	for _, mode := range []workload.CopyMode{workload.CopySplice, workload.CopyReadWrite} {
		elapsed, cpu := runSocketRelay(mode, ndgrams, dsize)
		label := "user"
		if mode == workload.CopySplice {
			label = "spliced"
		}
		kbs := float64(ndgrams*dsize) / 1024 / elapsed.Seconds()
		fmt.Fprintf(b, "%-10s %12v %14.0f %16v\n", label, elapsed, kbs, cpu)
	}
}

// runSocketRelay relays ndgrams datagrams of dsize bytes from one
// socket to another along mode's data path.
func runSocketRelay(mode workload.CopyMode, ndgrams, dsize int) (sim.Duration, sim.Duration) {
	s := DefaultSetup(RAM)
	m := NewMachine(s)
	defer m.Release()
	net := socket.NewNet(m.K, socket.Ethernet10())
	producer, _ := net.NewSocket(1)
	in, _ := net.NewSocket(2)
	out, _ := net.NewSocket(3)
	sink, _ := net.NewSocket(4)
	producer.Connect(2)
	out.Connect(4)

	var elapsed, cpu sim.Duration
	relay := workload.CopySpec{Mode: mode, BufSize: dsize}.Mover()

	var relayProc *kernel.Proc
	relayProc = m.K.Spawn("relay", func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		outFD := p.InstallFile(out, kernel.OWrOnly)
		t0 := p.Now()
		_, err := relay(p, inFD, outFD, int64(ndgrams*dsize))
		Must(err)
		elapsed = p.Now().Sub(t0)
		cpu = relayProc.UserTime() + relayProc.SysTime()
	})
	m.K.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		msg := make([]byte, dsize)
		for i := 0; i < ndgrams; i++ {
			_, err := p.Write(fd, msg)
			Must(err)
		}
	})
	m.K.Spawn("consumer", func(p *kernel.Proc) {
		fd := p.InstallFile(sink, kernel.ORdOnly)
		buf := make([]byte, dsize)
		for i := 0; i < ndgrams; i++ {
			if n, err := p.Read(fd, buf); err != nil || n == 0 {
				break
			}
		}
	})
	m.Run()
	return elapsed, cpu
}
