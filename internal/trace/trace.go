// Package trace is the simulator's structured tracing and metrics
// layer: a typed, allocation-light event stream emitted by every
// subsystem (scheduler, syscall layer, buffer cache, disks, network,
// splice engine, callout list, signals), with counter aggregation and a
// Chrome trace-event / Perfetto exporter on top.
//
// The design splits three concerns:
//
//   - Event is the wire unit: a fixed-shape struct (virtual timestamp,
//     kind, pid, two integer arguments, one interned string). Emitting
//     an event performs no formatting and no allocation beyond the
//     sink's own storage.
//   - Tracer fans each event into an always-on Metrics aggregator and
//     an optional Sink. Kernel code holds a *Tracer behind a nil check,
//     so with tracing off the per-event cost is a single pointer test.
//     Tracing never charges virtual time: enabling it cannot perturb
//     the simulation's timing or its deterministic event order.
//   - Sinks consume events: Collector retains them, Digester folds them
//     into an FNV-1a hash for determinism checks, Checker validates
//     stream invariants, and ExportChrome renders a collected stream as
//     viewer-loadable JSON.
//
// The full taxonomy, field semantics, and the Perfetto mapping are
// documented in docs/TRACING.md.
package trace

import (
	"fmt"

	"kdp/internal/sim"
)

// Kind identifies the type of a trace event. The numeric values are
// part of the digest-stable stream identity: append new kinds at the
// end rather than renumbering.
type Kind uint8

// Event kinds. Field conventions per kind are documented on the
// constant and in docs/TRACING.md.
const (
	KindNone Kind = iota

	// Scheduler events.
	KindSchedSwitch  // CPU given to Pid; Name = proc name
	KindSchedPreempt // Pid preempted; Arg1 = remaining CPU request (ns)
	KindSchedSleep   // Pid blocks; Arg1 = sleep priority
	KindSchedWakeup  // Pid made runnable; Arg1 = priority; Name = proc name
	KindProcExit     // Pid exited; Name = proc name

	// Syscall events. Matched pairs per Pid; Name = syscall name.
	KindSyscallEnter
	KindSyscallExit

	// CPU accounting events. Arg1 = duration (ns) charged to the
	// category; emitted as time is consumed, so summing Arg1 per kind
	// reproduces the kernel's CPU accounting exactly.
	KindCPUUser   // user-mode time charged to Pid
	KindCPUSys    // kernel-mode time charged to Pid
	KindCPUIntr   // interrupt-level stolen time
	KindCPUIdle   // idle time
	KindCPUSwitch // context-switch overhead; Pid = incoming proc

	// Buffer-cache events. Arg1 = block number; Name = device name.
	KindBufHit // Arg2 = 1 when the hit consumed a readahead buffer, else 0
	KindBufMiss
	KindBufFlush // periodic/forced dirty-buffer push; Arg1 = buffers queued

	// Disk events. Name = device name.
	KindDiskQueue // request queued; Arg1 = blkno, Arg2 = queue length after
	KindDiskStart // service begins; Arg1 = blkno, Arg2 = service time (ns)
	KindDiskRead  // read completion; Arg1 = blkno, Arg2 = bytes
	KindDiskWrite // write completion; Arg1 = blkno, Arg2 = bytes
	KindDiskError // completion with error; Arg1 = blkno

	// Network events. Arg1 = payload bytes, Arg2 = destination port.
	KindNetTx
	KindNetRx
	KindNetDrop

	// Splice engine events. Name = transfer mode ("file-file", ...).
	KindSpliceStart     // Pid = caller; Arg1 = requested bytes (-1 = to EOF)
	KindSpliceRead      // read issued; Arg1 = logical block, Arg2 = pending reads
	KindSpliceReadDone  // read completed; Arg1 = logical block, Arg2 = pending reads
	KindSpliceWrite     // write dispatched; Arg1 = logical block, Arg2 = pending writes
	KindSpliceWriteDone // write completed; Arg1 = bytes, Arg2 = pending writes
	KindSpliceStall     // flow-control backoff armed; Arg1 = pending reads, Arg2 = pending writes
	KindSpliceDone      // transfer finished; Arg1 = bytes moved, Arg2 = 0 ok / 1 error

	// Callout list. Arg1 = callouts still queued after this dispatch.
	KindCalloutFire

	// Signals. Arg1 = signal number; Name = signal name.
	KindSignalPost    // posted to Pid
	KindSignalDeliver // handler run in Pid's context

	// Filesystem events. Name = device name.
	KindFSSync // full-filesystem sync; Arg1 = dirty blocks pushed

	// Stream-transport events (internal/stream). Name = connection
	// label ("cli:5001->80#1").
	KindStreamRetx  // segment retransmitted; Arg1 = seq byte offset, Arg2 = consecutive retries
	KindStreamAck   // cumulative ACK advanced the send window; Arg1 = acked byte offset, Arg2 = advertised window
	KindStreamStall // sender blocked by a closed window; Arg1 = bytes waiting, Arg2 = bytes in flight

	// File-server events (internal/server). Name = server name.
	KindServerAccept // connection accepted; Pid = server pid, Arg1 = conn id, Arg2 = connections accepted so far

	// Crash/recovery events. Name = device name.
	KindFSCrash  // power cut: volatile state discarded; Arg1 = dirty buffers lost, Arg2 = queued requests dropped
	KindFSRepair // repairing fsck pass finished; Arg1 = problems found, Arg2 = repairs applied

	// Readiness multiplexing (internal/kernel poll + internal/server
	// event loop).
	KindKernelPoll  // poll returned; Pid = caller, Arg1 = fds scanned, Arg2 = fds ready
	KindServerReady // event loop dispatched a ready descriptor; Arg1 = fd, Arg2 = revents bits; Name = server name

	// Buffer-cache readahead and write clustering. Name = device name.
	KindBufReadahead // Arg1 = blkno; Arg2 = in-flight readaheads after issue (>= 1), or -1 when a never-referenced readahead buffer is retired (waste)
	KindDiskCluster  // contiguous dirty run issued back to back by a flush; Arg1 = starting blkno, Arg2 = run length in blocks (>= 2)

	// Virtual-memory subsystem (internal/vm). Name = backing device
	// name ("" for anonymous memory).
	KindVMFault   // page fault taken; Pid = faulter, Arg1 = mapped page index, Arg2 = 1 write / 0 read
	KindVMPagein  // fault filled from the backing file; Arg1 = page index, Arg2 = physical block
	KindVMPageout // dirty mapped page written back; Arg1 = page index, Arg2 = physical block
	KindVMCOW     // private store broke sharing; Pid = faulter, Arg1 = page index, Arg2 = bytes copied

	// Syscall aggregation (internal/kernel readv/writev/submit).
	KindKernelBatch // aggregated submission crossed the boundary once; Pid = caller, Arg1 = ops carried, Arg2 = crossings saved vs one-syscall-per-op

	// Fault-plan events (internal/kernel FaultPlan). Name = site ID.
	KindFaultArm  // a plan armed a site; Arg1 = k (occurrence to hit), Arg2 = every-n period (0 when unused)
	KindFaultFire // an armed fault fired; Arg1 = site argument (blkno, ordinal, pid), Arg2 = occurrence index that fired

	kindMax // count sentinel; keep last
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(kindMax)

var kindNames = [kindMax]string{
	KindNone:            "none",
	KindSchedSwitch:     "sched.switch",
	KindSchedPreempt:    "sched.preempt",
	KindSchedSleep:      "sched.sleep",
	KindSchedWakeup:     "sched.wakeup",
	KindProcExit:        "proc.exit",
	KindSyscallEnter:    "syscall.enter",
	KindSyscallExit:     "syscall.exit",
	KindCPUUser:         "cpu.user",
	KindCPUSys:          "cpu.sys",
	KindCPUIntr:         "cpu.intr",
	KindCPUIdle:         "cpu.idle",
	KindCPUSwitch:       "cpu.switch",
	KindBufHit:          "buf.hit",
	KindBufMiss:         "buf.miss",
	KindBufFlush:        "buf.flush",
	KindDiskQueue:       "disk.queue",
	KindDiskStart:       "disk.start",
	KindDiskRead:        "disk.read",
	KindDiskWrite:       "disk.write",
	KindDiskError:       "disk.error",
	KindNetTx:           "net.tx",
	KindNetRx:           "net.rx",
	KindNetDrop:         "net.drop",
	KindSpliceStart:     "splice.start",
	KindSpliceRead:      "splice.read",
	KindSpliceReadDone:  "splice.read-done",
	KindSpliceWrite:     "splice.write",
	KindSpliceWriteDone: "splice.write-done",
	KindSpliceStall:     "splice.stall",
	KindSpliceDone:      "splice.done",
	KindCalloutFire:     "callout.fire",
	KindSignalPost:      "signal.post",
	KindSignalDeliver:   "signal.deliver",
	KindFSSync:          "fs.sync",
	KindStreamRetx:      "stream.retx",
	KindStreamAck:       "stream.ack",
	KindStreamStall:     "stream.stall",
	KindServerAccept:    "server.accept",
	KindFSCrash:         "fs.crash",
	KindFSRepair:        "fs.repair",
	KindKernelPoll:      "kernel.poll",
	KindServerReady:     "server.ready",
	KindBufReadahead:    "buf.readahead",
	KindDiskCluster:     "disk.cluster",
	KindVMFault:         "vm.fault",
	KindVMPagein:        "vm.pagein",
	KindVMPageout:       "vm.pageout",
	KindVMCOW:           "vm.cow",
	KindKernelBatch:     "kernel.batch",
	KindFaultArm:        "fault.arm",
	KindFaultFire:       "fault.fire",
}

// String returns the kind's canonical dotted name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k names a defined event kind.
func (k Kind) Valid() bool { return k > KindNone && k < kindMax }

// Event is one structured trace record. The shape is fixed so that
// emission does not allocate: two integer arguments whose meaning is
// kind-specific (see the Kind constants) and one string that is always
// a pre-existing interned name (proc, device, syscall, mode), never a
// formatted message.
type Event struct {
	T    sim.Time // virtual timestamp
	Kind Kind
	Pid  int32 // process id, or 0 for machine-level events
	Arg1 int64
	Arg2 int64
	Name string
}

// String renders the event as one human-readable line (without the
// timestamp, which renderers prefix in their own format).
func (ev Event) String() string {
	switch ev.Kind {
	case KindSchedSwitch:
		return fmt.Sprintf("switch to %s", ev.procRef())
	case KindSchedPreempt:
		return fmt.Sprintf("preempt pid%d (rem %v)", ev.Pid, sim.Duration(ev.Arg1))
	case KindSchedSleep:
		return fmt.Sprintf("sleep pid%d pri=%d", ev.Pid, ev.Arg1)
	case KindSchedWakeup:
		return fmt.Sprintf("wakeup %s pri=%d", ev.procRef(), ev.Arg1)
	case KindProcExit:
		return fmt.Sprintf("exit %s", ev.procRef())
	case KindSyscallEnter:
		return fmt.Sprintf("syscall %s enter pid%d", ev.Name, ev.Pid)
	case KindSyscallExit:
		return fmt.Sprintf("syscall %s exit pid%d", ev.Name, ev.Pid)
	case KindCPUUser, KindCPUSys, KindCPUIntr, KindCPUIdle, KindCPUSwitch:
		return fmt.Sprintf("%v %v", ev.Kind, sim.Duration(ev.Arg1))
	case KindBufHit, KindBufMiss:
		return fmt.Sprintf("%v %s blk %d", ev.Kind, ev.Name, ev.Arg1)
	case KindBufFlush:
		return fmt.Sprintf("buf.flush %d dirty", ev.Arg1)
	case KindDiskQueue:
		return fmt.Sprintf("disk.queue %s blk %d qlen=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindDiskStart:
		return fmt.Sprintf("disk.start %s blk %d svc=%v", ev.Name, ev.Arg1, sim.Duration(ev.Arg2))
	case KindDiskRead, KindDiskWrite:
		return fmt.Sprintf("%v %s blk %d %dB", ev.Kind, ev.Name, ev.Arg1, ev.Arg2)
	case KindDiskError:
		return fmt.Sprintf("disk.error %s blk %d", ev.Name, ev.Arg1)
	case KindNetTx, KindNetRx, KindNetDrop:
		return fmt.Sprintf("%v %dB port %d", ev.Kind, ev.Arg1, ev.Arg2)
	case KindSpliceStart:
		return fmt.Sprintf("splice.start %s pid%d bytes=%d", ev.Name, ev.Pid, ev.Arg1)
	case KindSpliceRead, KindSpliceReadDone:
		return fmt.Sprintf("%v blk %d pendingReads=%d", ev.Kind, ev.Arg1, ev.Arg2)
	case KindSpliceWrite:
		return fmt.Sprintf("splice.write blk %d pendingWrites=%d", ev.Arg1, ev.Arg2)
	case KindSpliceWriteDone:
		return fmt.Sprintf("splice.write-done %dB pendingWrites=%d", ev.Arg1, ev.Arg2)
	case KindSpliceStall:
		return fmt.Sprintf("splice.stall pendingReads=%d pendingWrites=%d", ev.Arg1, ev.Arg2)
	case KindSpliceDone:
		if ev.Arg2 != 0 {
			return fmt.Sprintf("splice.done %dB (error)", ev.Arg1)
		}
		return fmt.Sprintf("splice.done %dB", ev.Arg1)
	case KindCalloutFire:
		return fmt.Sprintf("callout.fire (%d queued)", ev.Arg1)
	case KindSignalPost:
		return fmt.Sprintf("post %s to pid%d", ev.Name, ev.Pid)
	case KindSignalDeliver:
		return fmt.Sprintf("deliver %s to pid%d", ev.Name, ev.Pid)
	case KindFSSync:
		return fmt.Sprintf("fs.sync %s %d blocks", ev.Name, ev.Arg1)
	case KindStreamRetx:
		return fmt.Sprintf("stream.retx %s seq=%d try=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindStreamAck:
		return fmt.Sprintf("stream.ack %s acked=%d wnd=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindStreamStall:
		return fmt.Sprintf("stream.stall %s waiting=%d inflight=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindServerAccept:
		return fmt.Sprintf("server.accept %s conn=%d total=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindFSCrash:
		return fmt.Sprintf("fs.crash %s lost=%d dropped=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindFSRepair:
		return fmt.Sprintf("fs.repair %s problems=%d repaired=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindKernelPoll:
		return fmt.Sprintf("kernel.poll pid%d nfds=%d ready=%d", ev.Pid, ev.Arg1, ev.Arg2)
	case KindServerReady:
		return fmt.Sprintf("server.ready %s fd=%d revents=%#x", ev.Name, ev.Arg1, ev.Arg2)
	case KindBufReadahead:
		if ev.Arg2 < 0 {
			return fmt.Sprintf("buf.readahead %s blk %d wasted", ev.Name, ev.Arg1)
		}
		return fmt.Sprintf("buf.readahead %s blk %d inflight=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindDiskCluster:
		return fmt.Sprintf("disk.cluster %s blk %d..%d len=%d", ev.Name, ev.Arg1, ev.Arg1+ev.Arg2-1, ev.Arg2)
	case KindVMFault:
		mode := "read"
		if ev.Arg2 != 0 {
			mode = "write"
		}
		return fmt.Sprintf("vm.fault pid%d page %d (%s)", ev.Pid, ev.Arg1, mode)
	case KindVMPagein:
		return fmt.Sprintf("vm.pagein %s page %d blk %d", ev.Name, ev.Arg1, ev.Arg2)
	case KindVMPageout:
		return fmt.Sprintf("vm.pageout %s page %d blk %d", ev.Name, ev.Arg1, ev.Arg2)
	case KindVMCOW:
		return fmt.Sprintf("vm.cow pid%d page %d %dB", ev.Pid, ev.Arg1, ev.Arg2)
	case KindKernelBatch:
		return fmt.Sprintf("kernel.batch pid%d ops=%d saved=%d", ev.Pid, ev.Arg1, ev.Arg2)
	case KindFaultArm:
		return fmt.Sprintf("fault.arm %s k=%d every=%d", ev.Name, ev.Arg1, ev.Arg2)
	case KindFaultFire:
		return fmt.Sprintf("fault.fire %s arg=%d occurrence=%d", ev.Name, ev.Arg1, ev.Arg2)
	default:
		return fmt.Sprintf("%v pid%d %d %d %s", ev.Kind, ev.Pid, ev.Arg1, ev.Arg2, ev.Name)
	}
}

func (ev Event) procRef() string {
	if ev.Name != "" {
		return fmt.Sprintf("%s(pid%d)", ev.Name, ev.Pid)
	}
	return fmt.Sprintf("pid%d", ev.Pid)
}

// Sink consumes emitted events. Emit runs synchronously on the
// simulation goroutine and must not charge virtual time.
type Sink interface {
	Emit(Event)
}

// Tracer fans events into an always-on Metrics aggregator and an
// optional sink. A nil *Tracer is valid and inert, so holders can emit
// through a single nil check.
type Tracer struct {
	sink    Sink
	metrics Metrics
}

// New returns a tracer forwarding to sink. A nil sink is allowed:
// metrics are still aggregated, events are not retained.
func New(sink Sink) *Tracer {
	t := &Tracer{sink: sink}
	t.metrics.reset()
	return t
}

// Emit records one event.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.metrics.observe(ev)
	if t.sink != nil {
		t.sink.Emit(ev)
	}
}

// Metrics returns the tracer's counter aggregator.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return &t.metrics
}

// Collector is a Sink that retains every event in order.
type Collector struct {
	Events []Event
}

// Emit appends the event.
func (c *Collector) Emit(ev Event) { c.Events = append(c.Events, ev) }

// Reset discards collected events (keeping capacity).
func (c *Collector) Reset() { c.Events = c.Events[:0] }

// Digester is a Sink folding every event into a running FNV-1a hash;
// two runs are event-for-event identical iff their sums match.
type Digester struct {
	h uint64
}

// NewDigester returns an initialized digester.
func NewDigester() *Digester { return &Digester{h: fnvOffset} }

// Emit folds one event into the digest.
func (d *Digester) Emit(ev Event) {
	h := d.h
	h = fnvInt(h, int64(ev.T))
	h = fnvInt(h, int64(ev.Kind))
	h = fnvInt(h, int64(ev.Pid))
	h = fnvInt(h, ev.Arg1)
	h = fnvInt(h, ev.Arg2)
	h = fnvString(h, ev.Name)
	d.h = h
}

// Sum returns the digest of everything emitted so far.
func (d *Digester) Sum() uint64 { return d.h }

// Tee returns a sink duplicating every event to each of sinks (nils
// are skipped).
func Tee(sinks ...Sink) Sink {
	var out []Sink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return teeSink(out)
}

type teeSink []Sink

func (t teeSink) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// Terminate so ("ab","c") and ("a","bc") differ across events.
	h ^= 0xff
	h *= fnvPrime
	return h
}
