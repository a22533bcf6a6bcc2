package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"kdp/internal/sim"
)

// Chrome trace-event export: renders collected event streams as JSON
// loadable by Perfetto (ui.perfetto.dev) or chrome://tracing, using
// the "JSON object format" ({"traceEvents": [...]}).
//
// Mapping (documented in detail in docs/TRACING.md):
//
//   - virtual time → ts in microseconds (1 simulated ns = 0.001 ts);
//   - each machine run → one Chrome "process" (pid = run index + 1,
//     process_name = run label);
//   - each simulated process → a thread (tid = pid) carrying syscall
//     and sleep slices plus signal-delivery instants;
//   - each disk → a thread (tid = 1000+i) carrying one complete (X)
//     slice per I/O, dur = service time;
//   - the machine itself → tid 0 (callout/flush/sync instants) and
//     tid 900 for network instants;
//   - splice in-flight blocks, disk queue depth and cache hit/miss
//     totals → counter (C) tracks;
//   - every kind with no rendering of its own → an instant named after
//     the kind, on its process's thread when it has a Pid, else tid 0,
//     with args arg1, arg2 and name.
//
// CPU accounting events (KindCPU*) are deliberately not rendered: they
// are the highest-frequency kinds and their content is exactly the
// Metrics CPU counters; the -stats renderer and counter snapshots
// present them better than a timeline can.
const (
	chromeTidMachine = 0
	chromeTidNet     = 900
	chromeTidDisk0   = 1000
)

// Run is one machine's labelled event stream, as input to ExportChrome.
type Run struct {
	Label  string
	Events []Event
}

// chromeEvent is one trace-viewer record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t sim.Time) float64 { return float64(int64(t)) / 1e3 }

// ExportChrome writes runs as Chrome trace-event JSON. Output is
// deterministic: a function only of the runs' labels and events.
func ExportChrome(w io.Writer, runs []Run) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for i, run := range runs {
		if err := exportRun(emit, i+1, run); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// exportRun renders one machine's stream as Chrome process pid.
func exportRun(emit func(chromeEvent) error, pid int, run Run) error {
	label := run.Label
	if label == "" {
		label = fmt.Sprintf("run %d", pid)
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": label}}); err != nil {
		return err
	}
	if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: chromeTidMachine,
		Args: map[string]any{"name": "machine"}}); err != nil {
		return err
	}

	// First pass: name the threads (simulated processes and disks).
	procName := map[int32]string{}
	diskTid := map[string]int{}
	netSeen := false
	for _, ev := range run.Events {
		switch ev.Kind {
		case KindSchedSwitch, KindSchedWakeup, KindProcExit:
			if ev.Name != "" && procName[ev.Pid] == "" {
				procName[ev.Pid] = ev.Name
			}
		case KindDiskQueue, KindDiskStart, KindDiskRead, KindDiskWrite, KindDiskError:
			if _, ok := diskTid[ev.Name]; !ok {
				tid := chromeTidDisk0 + len(diskTid)
				diskTid[ev.Name] = tid
				if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": "disk " + ev.Name}}); err != nil {
					return err
				}
			}
		case KindNetTx, KindNetRx, KindNetDrop:
			if !netSeen {
				netSeen = true
				if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: chromeTidNet,
					Args: map[string]any{"name": "net"}}); err != nil {
					return err
				}
			}
		case KindSyscallEnter:
			if _, ok := procName[ev.Pid]; !ok {
				procName[ev.Pid] = ""
			}
		}
	}
	// Deterministic order: events were scanned in stream order, and
	// map iteration below is avoided by re-scanning the stream.
	named := map[int32]bool{}
	for _, ev := range run.Events {
		tid := int32(-1)
		switch ev.Kind {
		case KindSchedSwitch, KindSchedWakeup, KindSchedSleep, KindSchedPreempt,
			KindProcExit, KindSyscallEnter, KindSyscallExit, KindSignalDeliver:
			tid = ev.Pid
		default:
			continue
		}
		if named[tid] {
			continue
		}
		named[tid] = true
		name := procName[tid]
		if name == "" {
			name = fmt.Sprintf("pid %d", tid)
		} else {
			name = fmt.Sprintf("%s (pid %d)", name, tid)
		}
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: int(tid),
			Args: map[string]any{"name": name}}); err != nil {
			return err
		}
	}

	// Second pass: the events themselves.
	openSys := map[int32]int{} // depth of open syscall slices per pid
	openSleep := map[int32]bool{}
	bufHits, bufMisses := int64(0), int64(0)
	spliceReads, spliceWrites := int64(0), int64(0)
	var lastT sim.Time
	for _, ev := range run.Events {
		lastT = ev.T
		switch ev.Kind {
		case KindSyscallEnter:
			openSys[ev.Pid]++
			if err := emit(chromeEvent{Name: ev.Name, Cat: "syscall", Ph: "B",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid)}); err != nil {
				return err
			}
		case KindSyscallExit:
			if openSys[ev.Pid] == 0 {
				continue // unmatched exit: drop rather than corrupt nesting
			}
			openSys[ev.Pid]--
			if err := emit(chromeEvent{Name: ev.Name, Cat: "syscall", Ph: "E",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid)}); err != nil {
				return err
			}
		case KindSchedSleep:
			if openSleep[ev.Pid] {
				continue
			}
			openSleep[ev.Pid] = true
			if err := emit(chromeEvent{Name: "sleep", Cat: "sched", Ph: "B",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid),
				Args: map[string]any{"pri": ev.Arg1}}); err != nil {
				return err
			}
		case KindSchedWakeup:
			if !openSleep[ev.Pid] {
				continue
			}
			openSleep[ev.Pid] = false
			if err := emit(chromeEvent{Name: "sleep", Cat: "sched", Ph: "E",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid)}); err != nil {
				return err
			}
		case KindSchedPreempt:
			if err := emit(chromeEvent{Name: "preempt", Cat: "sched", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid),
				Args: map[string]any{"s": "t"}}); err != nil {
				return err
			}
		case KindProcExit:
			if err := emit(chromeEvent{Name: "exit", Cat: "sched", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: int(ev.Pid),
				Args: map[string]any{"s": "t"}}); err != nil {
				return err
			}
		case KindDiskStart:
			if err := emit(chromeEvent{Name: fmt.Sprintf("blk %d", ev.Arg1), Cat: "disk", Ph: "X",
				Ts: usec(ev.T), Dur: float64(ev.Arg2) / 1e3, Pid: pid, Tid: diskTid[ev.Name]}); err != nil {
				return err
			}
		case KindDiskQueue:
			if err := emit(chromeEvent{Name: "queue " + ev.Name, Ph: "C",
				Ts: usec(ev.T), Pid: pid, Tid: diskTid[ev.Name],
				Args: map[string]any{"len": ev.Arg2}}); err != nil {
				return err
			}
		case KindDiskError:
			if err := emit(chromeEvent{Name: "disk error", Cat: "disk", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: diskTid[ev.Name],
				Args: map[string]any{"s": "t"}}); err != nil {
				return err
			}
		case KindBufHit, KindBufMiss:
			if ev.Kind == KindBufHit {
				bufHits++
			} else {
				bufMisses++
			}
			if err := emit(chromeEvent{Name: "cache", Ph: "C",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidMachine,
				Args: map[string]any{"hits": bufHits, "misses": bufMisses}}); err != nil {
				return err
			}
		case KindBufFlush:
			if err := emit(chromeEvent{Name: "buf flush", Cat: "buf", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidMachine,
				Args: map[string]any{"dirty": ev.Arg1, "s": "t"}}); err != nil {
				return err
			}
		case KindFSSync:
			if err := emit(chromeEvent{Name: "fs sync " + ev.Name, Cat: "fs", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidMachine,
				Args: map[string]any{"blocks": ev.Arg1, "s": "t"}}); err != nil {
				return err
			}
		case KindCalloutFire:
			if err := emit(chromeEvent{Name: "callout", Cat: "callout", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidMachine,
				Args: map[string]any{"queued": ev.Arg1, "s": "t"}}); err != nil {
				return err
			}
		case KindNetTx, KindNetRx, KindNetDrop:
			if err := emit(chromeEvent{Name: ev.Kind.String(), Cat: "net", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidNet,
				Args: map[string]any{"bytes": ev.Arg1, "port": ev.Arg2, "s": "t"}}); err != nil {
				return err
			}
		case KindSignalPost, KindSignalDeliver:
			tid := chromeTidMachine
			if ev.Kind == KindSignalDeliver {
				tid = int(ev.Pid)
			}
			if err := emit(chromeEvent{Name: ev.Kind.String() + " " + ev.Name, Cat: "signal", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: tid,
				Args: map[string]any{"s": "t"}}); err != nil {
				return err
			}
		case KindSpliceStart, KindSpliceDone, KindSpliceStall:
			args := map[string]any{"arg1": ev.Arg1, "arg2": ev.Arg2, "s": "t"}
			if ev.Name != "" {
				args["mode"] = ev.Name
			}
			if err := emit(chromeEvent{Name: ev.Kind.String(), Cat: "splice", Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: chromeTidMachine,
				Args: args}); err != nil {
				return err
			}
			if ev.Kind == KindSpliceDone {
				spliceReads, spliceWrites = 0, 0
				if err := emitSpliceGauge(emit, pid, ev.T, spliceReads, spliceWrites); err != nil {
					return err
				}
			}
		case KindSpliceRead, KindSpliceReadDone:
			spliceReads = ev.Arg2
			if err := emitSpliceGauge(emit, pid, ev.T, spliceReads, spliceWrites); err != nil {
				return err
			}
		case KindSpliceWrite, KindSpliceWriteDone:
			spliceWrites = ev.Arg2
			if err := emitSpliceGauge(emit, pid, ev.T, spliceReads, spliceWrites); err != nil {
				return err
			}
		case KindCPUUser, KindCPUSys, KindCPUIntr, KindCPUIdle, KindCPUSwitch,
			KindSchedSwitch, KindDiskRead, KindDiskWrite:
			// Not drawn: cpu.* is the Metrics CPU counters, sched.switch
			// only names threads, and the disk.start slice already spans
			// the completion.
		default:
			// Every other kind is an instant carrying its raw arguments,
			// on its process's track if it has one, so a kind added to
			// the stream shows up in the export without an exporter change.
			tid := chromeTidMachine
			if ev.Pid > 0 {
				tid = int(ev.Pid)
			}
			args := map[string]any{"arg1": ev.Arg1, "arg2": ev.Arg2, "s": "t"}
			if ev.Name != "" {
				args["name"] = ev.Name
			}
			cat, _, _ := strings.Cut(ev.Kind.String(), ".")
			if err := emit(chromeEvent{Name: ev.Kind.String(), Cat: cat, Ph: "i",
				Ts: usec(ev.T), Pid: pid, Tid: tid, Args: args}); err != nil {
				return err
			}
		}
	}

	// Close any slice still open so B/E balance (Perfetto renders
	// unterminated slices, but the schema validator insists on pairs).
	for tid := int32(0); ; tid++ {
		// Deterministic close-out: scan pids in ascending order up to
		// the largest seen. Bounded: pids are small positive ints.
		if int(tid) > maxPid(openSys, openSleep) {
			break
		}
		for openSys[tid] > 0 {
			openSys[tid]--
			if err := emit(chromeEvent{Name: "unfinished", Cat: "syscall", Ph: "E",
				Ts: usec(lastT), Pid: pid, Tid: int(tid)}); err != nil {
				return err
			}
		}
		if openSleep[tid] {
			openSleep[tid] = false
			if err := emit(chromeEvent{Name: "sleep", Cat: "sched", Ph: "E",
				Ts: usec(lastT), Pid: pid, Tid: int(tid)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func emitSpliceGauge(emit func(chromeEvent) error, pid int, t sim.Time, reads, writes int64) error {
	return emit(chromeEvent{Name: "splice in-flight", Ph: "C",
		Ts: usec(t), Pid: pid, Tid: chromeTidMachine,
		Args: map[string]any{"reads": reads, "writes": writes}})
}

func maxPid(a map[int32]int, b map[int32]bool) int {
	max := -1
	for pid := range a {
		if int(pid) > max {
			max = int(pid)
		}
	}
	for pid := range b {
		if int(pid) > max {
			max = int(pid)
		}
	}
	return max
}

// ValidateChrome parses Chrome trace-event JSON and checks it against
// the exporter's schema: a traceEvents array whose records carry a
// name, a known phase, a non-negative ts, and integer pid/tid; B/E
// slice events must balance per (pid, tid, cat) and X events must have
// a non-negative dur. Returns the number of events on success.
func ValidateChrome(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace: bad JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	type key struct {
		pid, tid int
	}
	depth := map[key]int{}
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name *string        `json:"name"`
			Ph   *string        `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("trace: event %d: missing name", i)
		}
		if ev.Ph == nil {
			return 0, fmt.Errorf("trace: event %d (%s): missing ph", i, *ev.Name)
		}
		if ev.Pid == nil {
			return 0, fmt.Errorf("trace: event %d (%s): missing pid", i, *ev.Name)
		}
		switch *ev.Ph {
		case "M":
			if *ev.Name != "process_name" && *ev.Name != "thread_name" {
				return 0, fmt.Errorf("trace: event %d: unknown metadata %q", i, *ev.Name)
			}
			if name, ok := ev.Args["name"].(string); !ok || name == "" {
				return 0, fmt.Errorf("trace: event %d (%s): metadata without args.name", i, *ev.Name)
			}
			continue
		case "B", "E", "X", "C", "i", "I":
		default:
			return 0, fmt.Errorf("trace: event %d (%s): unknown phase %q", i, *ev.Name, *ev.Ph)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return 0, fmt.Errorf("trace: event %d (%s): missing or negative ts", i, *ev.Name)
		}
		if ev.Tid == nil {
			return 0, fmt.Errorf("trace: event %d (%s): missing tid", i, *ev.Name)
		}
		k := key{*ev.Pid, *ev.Tid}
		switch *ev.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				return 0, fmt.Errorf("trace: event %d (%s): E without B on pid=%d tid=%d",
					i, *ev.Name, *ev.Pid, *ev.Tid)
			}
		case "X":
			if ev.Dur != nil && *ev.Dur < 0 {
				return 0, fmt.Errorf("trace: event %d (%s): negative dur", i, *ev.Name)
			}
		case "C":
			if len(ev.Args) == 0 {
				return 0, fmt.Errorf("trace: event %d (%s): counter without args", i, *ev.Name)
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			return 0, fmt.Errorf("trace: %d unclosed slice(s) on pid=%d tid=%d", d, k.pid, k.tid)
		}
	}
	return len(doc.TraceEvents), nil
}
