package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"kdp/internal/sim"
)

// Metrics aggregates the event stream into named counters that can be
// snapshotted at any virtual time. Every Tracer owns one and updates it
// on each Emit, so counters are exact functions of the event stream —
// the property the trace Checker verifies.
//
// Counter names are canonical and documented in the "counters
// glossary" appendix of EXPERIMENTS.md; EventCount indexes by Kind.
type Metrics struct {
	EventCount [kindMax]int64
	events     int64    // running sum of EventCount
	First      sim.Time // timestamp of the first event observed
	Last       sim.Time // timestamp of the most recent event

	// CPU time by category, in virtual nanoseconds (sums of Arg1 of
	// the corresponding KindCPU* events).
	CPUUser   sim.Duration
	CPUSys    sim.Duration
	CPUIntr   sim.Duration
	CPUIdle   sim.Duration
	CPUSwitch sim.Duration

	perProc  map[int32]*ProcCPU
	syscalls map[string]int64
	disks    map[string]*DiskMetrics

	// Buffer cache.
	BufHits    int64
	BufMisses  int64
	BufFlushed int64 // dirty buffers pushed by flush passes (sum of Arg1)

	// Readahead: asynchronous block fetches issued ahead of the
	// reader, how many were later consumed by a cache lookup (hits),
	// and how many were evicted or invalidated unreferenced (waste).
	BufRaIssued int64
	BufRaHits   int64
	BufRaWaste  int64

	// Network.
	NetTxBytes int64
	NetRxBytes int64

	// Splice engine. The in-flight gauges track the engine's pending
	// read/write block counts (Arg2 of the read/write events); peaks
	// are maxima over the run, comparable against the watermarks.
	SpliceBytes          int64
	SpliceInflightReads  int64
	SpliceInflightWrites int64
	SplicePeakReads      int64
	SplicePeakWrites     int64

	// Stream transport. Retransmitted and cumulatively acknowledged
	// bytes (Arg1 deltas folded per event), plus the peak consecutive
	// retry count seen on any one segment.
	StreamRetxPeakTries int64

	// Readiness multiplexing: descriptors scanned and reported ready
	// across every poll return (Arg1/Arg2 of KindKernelPoll).
	PollScannedFds int64
	PollReadyFds   int64

	// Virtual memory: page faults taken, pages filled from backing
	// files, dirty mapped pages written back, and copy-on-write breaks
	// (with the bytes those copies moved).
	VMFaults   int64
	VMPageins  int64
	VMPageouts int64
	VMCows     int64
	VMCowBytes int64

	// Syscall aggregation: operations carried inside batched
	// submissions and the kernel crossings those submissions saved
	// versus one syscall per op (Arg1/Arg2 of KindKernelBatch).
	BatchOps            int64
	BatchCrossingsSaved int64
}

// ProcCPU is per-process CPU accounting derived from the stream.
type ProcCPU struct {
	User sim.Duration
	Sys  sim.Duration
}

// DiskMetrics is per-device accounting derived from the stream.
type DiskMetrics struct {
	Reads        int64
	Writes       int64
	Errors       int64
	ReadBytes    int64
	WriteBytes   int64
	Busy         sim.Duration // sum of service times (KindDiskStart Arg2)
	QueueSamples int64        // one per KindDiskQueue event
	QueueSum     int64        // sum of queue lengths at queue time
	QueuePeak    int64

	// Write clustering: contiguous dirty runs issued back to back by
	// flush passes (KindDiskCluster), and the blocks they covered.
	ClusterRuns   int64
	ClusterBlocks int64 // sum of run lengths (the disk.cluster_len counter)
}

func (m *Metrics) reset() {
	*m = Metrics{
		perProc:  make(map[int32]*ProcCPU),
		syscalls: make(map[string]int64),
		disks:    make(map[string]*DiskMetrics),
	}
}

func (m *Metrics) proc(pid int32) *ProcCPU {
	pc := m.perProc[pid]
	if pc == nil {
		pc = &ProcCPU{}
		m.perProc[pid] = pc
	}
	return pc
}

func (m *Metrics) disk(name string) *DiskMetrics {
	dm := m.disks[name]
	if dm == nil {
		dm = &DiskMetrics{}
		m.disks[name] = dm
	}
	return dm
}

// observe folds one event into the counters.
func (m *Metrics) observe(ev Event) {
	if ev.Kind < kindMax {
		m.EventCount[ev.Kind]++
		m.events++
	}
	if m.events == 1 {
		m.First = ev.T
	}
	m.Last = ev.T

	switch ev.Kind {
	case KindCPUUser:
		m.CPUUser += sim.Duration(ev.Arg1)
		m.proc(ev.Pid).User += sim.Duration(ev.Arg1)
	case KindCPUSys:
		m.CPUSys += sim.Duration(ev.Arg1)
		m.proc(ev.Pid).Sys += sim.Duration(ev.Arg1)
	case KindCPUIntr:
		m.CPUIntr += sim.Duration(ev.Arg1)
	case KindCPUIdle:
		m.CPUIdle += sim.Duration(ev.Arg1)
	case KindCPUSwitch:
		m.CPUSwitch += sim.Duration(ev.Arg1)
	case KindSyscallEnter:
		m.syscalls[ev.Name]++
	case KindBufHit:
		m.BufHits++
		if ev.Arg2 == 1 {
			m.BufRaHits++
		}
	case KindBufMiss:
		m.BufMisses++
	case KindBufFlush:
		m.BufFlushed += ev.Arg1
	case KindBufReadahead:
		if ev.Arg2 < 0 {
			m.BufRaWaste++
		} else {
			m.BufRaIssued++
		}
	case KindDiskCluster:
		dm := m.disk(ev.Name)
		dm.ClusterRuns++
		dm.ClusterBlocks += ev.Arg2
	case KindDiskQueue:
		dm := m.disk(ev.Name)
		dm.QueueSamples++
		dm.QueueSum += ev.Arg2
		if ev.Arg2 > dm.QueuePeak {
			dm.QueuePeak = ev.Arg2
		}
	case KindDiskStart:
		m.disk(ev.Name).Busy += sim.Duration(ev.Arg2)
	case KindDiskRead:
		dm := m.disk(ev.Name)
		dm.Reads++
		dm.ReadBytes += ev.Arg2
	case KindDiskWrite:
		dm := m.disk(ev.Name)
		dm.Writes++
		dm.WriteBytes += ev.Arg2
	case KindDiskError:
		m.disk(ev.Name).Errors++
	case KindNetTx:
		m.NetTxBytes += ev.Arg1
	case KindNetRx:
		m.NetRxBytes += ev.Arg1
	case KindSpliceRead, KindSpliceReadDone:
		m.SpliceInflightReads = ev.Arg2
		if ev.Arg2 > m.SplicePeakReads {
			m.SplicePeakReads = ev.Arg2
		}
	case KindSpliceWrite:
		m.SpliceInflightWrites = ev.Arg2
		if ev.Arg2 > m.SplicePeakWrites {
			m.SplicePeakWrites = ev.Arg2
		}
	case KindSpliceWriteDone:
		m.SpliceInflightWrites = ev.Arg2
	case KindSpliceDone:
		m.SpliceBytes += ev.Arg1
	case KindStreamRetx:
		if ev.Arg2 > m.StreamRetxPeakTries {
			m.StreamRetxPeakTries = ev.Arg2
		}
	case KindKernelPoll:
		m.PollScannedFds += ev.Arg1
		m.PollReadyFds += ev.Arg2
	case KindVMFault:
		m.VMFaults++
	case KindVMPagein:
		m.VMPageins++
	case KindVMPageout:
		m.VMPageouts++
	case KindVMCOW:
		m.VMCows++
		m.VMCowBytes += ev.Arg2
	case KindKernelBatch:
		m.BatchOps += ev.Arg1
		m.BatchCrossingsSaved += ev.Arg2
	}
}

// Events returns the total number of events observed.
func (m *Metrics) Events() int64 { return m.events }

// ProcCPUSnapshot returns per-process CPU accounting, sorted by pid.
func (m *Metrics) ProcCPUSnapshot() []struct {
	Pid int32
	ProcCPU
} {
	pids := make([]int32, 0, len(m.perProc))
	for pid := range m.perProc {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out := make([]struct {
		Pid int32
		ProcCPU
	}, 0, len(pids))
	for _, pid := range pids {
		out = append(out, struct {
			Pid int32
			ProcCPU
		}{pid, *m.perProc[pid]})
	}
	return out
}

// ClusterLen returns the total number of blocks covered by clustered
// dirty runs across every device (the disk.cluster_len counter).
func (m *Metrics) ClusterLen() int64 {
	var n int64
	for _, dm := range m.disks {
		n += dm.ClusterBlocks
	}
	return n
}

// CacheHitRatio returns hits/(hits+misses), or 0 with no lookups.
func (m *Metrics) CacheHitRatio() float64 {
	total := m.BufHits + m.BufMisses
	if total == 0 {
		return 0
	}
	return float64(m.BufHits) / float64(total)
}

// Counter is one named counter value in a snapshot.
type Counter struct {
	Name  string
	Value int64
}

// Snapshot returns every counter under its canonical name, sorted by
// name — a deterministic flattening of the aggregator, suitable for
// digesting, diffing, and the counters glossary in EXPERIMENTS.md.
// Durations are in virtual nanoseconds.
func (m *Metrics) Snapshot() []Counter { return m.AppendSnapshot(nil) }

// AppendSnapshot appends Snapshot's counters, sorted by name, to out
// and returns it: a caller that snapshots repeatedly passes the last
// snapshot's array, emptied.
func (m *Metrics) AppendSnapshot(out []Counter) []Counter {
	n0 := len(out)
	add := func(name string, v int64) { out = append(out, Counter{name, v}) }

	for k := Kind(1); k < kindMax; k++ {
		if m.EventCount[k] != 0 {
			add("events."+k.String(), m.EventCount[k])
		}
	}
	add("cpu.user", int64(m.CPUUser))
	add("cpu.sys", int64(m.CPUSys))
	add("cpu.intr", int64(m.CPUIntr))
	add("cpu.idle", int64(m.CPUIdle))
	add("cpu.switch", int64(m.CPUSwitch))
	for _, pc := range m.ProcCPUSnapshot() {
		add(fmt.Sprintf("cpu.user.pid%d", pc.Pid), int64(pc.User))
		add(fmt.Sprintf("cpu.sys.pid%d", pc.Pid), int64(pc.Sys))
	}
	names := make([]string, 0, len(m.syscalls))
	for name := range m.syscalls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add("syscall."+name, m.syscalls[name])
	}
	add("buf.hits", m.BufHits)
	add("buf.misses", m.BufMisses)
	add("buf.flushed", m.BufFlushed)
	add("buf.ra_issued", m.BufRaIssued)
	add("buf.ra_hits", m.BufRaHits)
	add("buf.ra_waste", m.BufRaWaste)
	devs := make([]string, 0, len(m.disks))
	for name := range m.disks {
		devs = append(devs, name)
	}
	sort.Strings(devs)
	for _, name := range devs {
		dm := m.disks[name]
		add("disk."+name+".reads", dm.Reads)
		add("disk."+name+".writes", dm.Writes)
		add("disk."+name+".errors", dm.Errors)
		add("disk."+name+".read_bytes", dm.ReadBytes)
		add("disk."+name+".write_bytes", dm.WriteBytes)
		add("disk."+name+".busy", int64(dm.Busy))
		add("disk."+name+".queue_samples", dm.QueueSamples)
		add("disk."+name+".queue_sum", dm.QueueSum)
		add("disk."+name+".queue_peak", dm.QueuePeak)
		add("disk."+name+".cluster_runs", dm.ClusterRuns)
		add("disk."+name+".cluster_len", dm.ClusterBlocks)
	}
	add("disk.cluster_len", m.ClusterLen())
	add("net.tx_bytes", m.NetTxBytes)
	add("net.rx_bytes", m.NetRxBytes)
	add("splice.bytes", m.SpliceBytes)
	add("splice.inflight_reads", m.SpliceInflightReads)
	add("splice.inflight_writes", m.SpliceInflightWrites)
	add("splice.peak_reads", m.SplicePeakReads)
	add("splice.peak_writes", m.SplicePeakWrites)
	add("stream.retx_peak_tries", m.StreamRetxPeakTries)
	add("poll.scanned_fds", m.PollScannedFds)
	add("poll.ready_fds", m.PollReadyFds)
	add("vm.faults", m.VMFaults)
	add("vm.pageins", m.VMPageins)
	add("vm.pageouts", m.VMPageouts)
	add("vm.cows", m.VMCows)
	add("vm.cow_bytes", m.VMCowBytes)
	add("sys.batch_ops", m.BatchOps)
	add("sys.batch_crossings_saved", m.BatchCrossingsSaved)

	slices.SortFunc(out[n0:], func(a, b Counter) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Format writes a human-readable summary of the aggregated counters —
// the kdptrace -stats renderer.
func (m *Metrics) Format(w io.Writer) {
	span := m.Last.Sub(m.First)
	fmt.Fprintf(w, "events: %d over %v (t=%v..%v)\n", m.events, span, m.First, m.Last)

	fmt.Fprintf(w, "cpu: user=%v sys=%v intr=%v idle=%v switch=%v\n",
		m.CPUUser, m.CPUSys, m.CPUIntr, m.CPUIdle, m.CPUSwitch)
	for _, pc := range m.ProcCPUSnapshot() {
		fmt.Fprintf(w, "  pid%-4d user=%v sys=%v\n", pc.Pid, pc.User, pc.Sys)
	}

	if n := m.EventCount[KindSyscallEnter]; n > 0 {
		fmt.Fprintf(w, "syscalls: %d", n)
		names := make([]string, 0, len(m.syscalls))
		for name := range m.syscalls {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, " %s=%d", name, m.syscalls[name])
		}
		fmt.Fprintln(w)
	}

	if m.BufHits+m.BufMisses > 0 {
		fmt.Fprintf(w, "cache: hits=%d misses=%d ratio=%.1f%% flushed=%d\n",
			m.BufHits, m.BufMisses, 100*m.CacheHitRatio(), m.BufFlushed)
	}
	if m.BufRaIssued+m.BufRaWaste > 0 {
		fmt.Fprintf(w, "readahead: issued=%d hits=%d waste=%d\n",
			m.BufRaIssued, m.BufRaHits, m.BufRaWaste)
	}

	devs := make([]string, 0, len(m.disks))
	for name := range m.disks {
		devs = append(devs, name)
	}
	sort.Strings(devs)
	for _, name := range devs {
		dm := m.disks[name]
		util := 0.0
		if span > 0 {
			util = 100 * float64(dm.Busy) / float64(span)
		}
		mean := 0.0
		if dm.QueueSamples > 0 {
			mean = float64(dm.QueueSum) / float64(dm.QueueSamples)
		}
		fmt.Fprintf(w, "disk %s: reads=%d writes=%d errors=%d busy=%v util=%.1f%% queue mean=%.2f peak=%d\n",
			name, dm.Reads, dm.Writes, dm.Errors, dm.Busy, util, mean, dm.QueuePeak)
		if dm.ClusterRuns > 0 {
			fmt.Fprintf(w, "  clusters: runs=%d blocks=%d mean len=%.2f\n",
				dm.ClusterRuns, dm.ClusterBlocks,
				float64(dm.ClusterBlocks)/float64(dm.ClusterRuns))
		}
	}

	if m.EventCount[KindNetTx]+m.EventCount[KindNetRx]+m.EventCount[KindNetDrop] > 0 {
		fmt.Fprintf(w, "net: tx=%d (%dB) rx=%d (%dB) drops=%d\n",
			m.EventCount[KindNetTx], m.NetTxBytes,
			m.EventCount[KindNetRx], m.NetRxBytes,
			m.EventCount[KindNetDrop])
	}

	if m.EventCount[KindSpliceStart] > 0 {
		fmt.Fprintf(w, "splice: transfers=%d bytes=%d reads=%d writes=%d stalls=%d peak reads=%d writes=%d\n",
			m.EventCount[KindSpliceStart], m.SpliceBytes,
			m.EventCount[KindSpliceRead], m.EventCount[KindSpliceWrite],
			m.EventCount[KindSpliceStall], m.SplicePeakReads, m.SplicePeakWrites)
	}

	if m.EventCount[KindStreamAck]+m.EventCount[KindStreamRetx]+m.EventCount[KindStreamStall]+m.EventCount[KindStreamDelack] > 0 {
		fmt.Fprintf(w, "stream: acks=%d delayed=%d retransmits=%d (peak tries=%d) stalls=%d\n",
			m.EventCount[KindStreamAck], m.EventCount[KindStreamDelack], m.EventCount[KindStreamRetx],
			m.StreamRetxPeakTries, m.EventCount[KindStreamStall])
	}
	if n := m.EventCount[KindServerAccept]; n > 0 {
		fmt.Fprintf(w, "server: accepts=%d ready=%d\n", n, m.EventCount[KindServerReady])
	}

	if n := m.EventCount[KindKernelPoll]; n > 0 {
		fmt.Fprintf(w, "poll: returns=%d scanned=%d ready=%d\n",
			n, m.PollScannedFds, m.PollReadyFds)
	}

	if n := m.EventCount[KindKernelBatch]; n > 0 {
		fmt.Fprintf(w, "batch: submits=%d ops=%d crossings_saved=%d\n",
			n, m.BatchOps, m.BatchCrossingsSaved)
	}

	if m.VMFaults+m.VMPageins+m.VMPageouts+m.VMCows > 0 {
		fmt.Fprintf(w, "vm: faults=%d pageins=%d pageouts=%d cows=%d cow_bytes=%d\n",
			m.VMFaults, m.VMPageins, m.VMPageouts, m.VMCows, m.VMCowBytes)
	}

	if n := m.EventCount[KindCalloutFire]; n > 0 {
		fmt.Fprintf(w, "callouts: %d fired\n", n)
	}
	if n := m.EventCount[KindSignalPost]; n > 0 {
		fmt.Fprintf(w, "signals: posted=%d delivered=%d\n", n, m.EventCount[KindSignalDeliver])
	}
}
