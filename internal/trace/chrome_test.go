package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kdp/internal/sim"
)

// syntheticRun exercises every exporter path: syscall slices, sleep
// slices, disk service slices, queue and cache counters, splice
// instants and gauges, net and signal instants.
func syntheticRun() Run {
	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	return Run{Label: "synthetic", Events: []Event{
		{T: ms(1), Kind: KindSchedSwitch, Pid: 1, Name: "copier"},
		{T: ms(1), Kind: KindSyscallEnter, Pid: 1, Name: "open"},
		{T: ms(2), Kind: KindSyscallExit, Pid: 1, Name: "open"},
		{T: ms(2), Kind: KindSyscallEnter, Pid: 1, Name: "splice"},
		{T: ms(2), Kind: KindSpliceStart, Pid: 1, Arg1: 1 << 16, Name: "file-file"},
		{T: ms(3), Kind: KindSpliceRead, Arg1: 0, Arg2: 1},
		{T: ms(3), Kind: KindBufMiss, Arg1: 10, Name: "rz58-0"},
		{T: ms(3), Kind: KindDiskQueue, Arg1: 10, Arg2: 1, Name: "rz58-0"},
		{T: ms(3), Kind: KindDiskStart, Arg1: 10, Arg2: int64(5 * sim.Millisecond), Name: "rz58-0"},
		{T: ms(3), Kind: KindSchedSleep, Pid: 1, Arg1: 20},
		{T: ms(8), Kind: KindDiskRead, Arg1: 10, Arg2: 8192, Name: "rz58-0"},
		{T: ms(8), Kind: KindSpliceReadDone, Arg1: 0, Arg2: 0},
		{T: ms(8), Kind: KindCalloutFire, Arg1: 0},
		{T: ms(8), Kind: KindSpliceWrite, Arg1: 0, Arg2: 1},
		{T: ms(9), Kind: KindBufHit, Arg1: 11, Name: "rz58-0"},
		{T: ms(12), Kind: KindDiskWrite, Arg1: 40, Arg2: 8192, Name: "rz58-1"},
		{T: ms(12), Kind: KindSpliceWriteDone, Arg1: 8192, Arg2: 0},
		{T: ms(12), Kind: KindNetTx, Arg1: 1400, Arg2: 9},
		{T: ms(12), Kind: KindNetRx, Arg1: 1400, Arg2: 9},
		{T: ms(13), Kind: KindSpliceStall, Arg1: 0, Arg2: 0},
		{T: ms(13), Kind: KindSignalPost, Pid: 1, Arg1: 23, Name: "SIGIO"},
		{T: ms(13), Kind: KindSchedWakeup, Pid: 1, Arg1: 20, Name: "copier"},
		{T: ms(14), Kind: KindSignalDeliver, Pid: 1, Arg1: 23, Name: "SIGIO"},
		{T: ms(14), Kind: KindSpliceDone, Arg1: 1 << 16, Name: "file-file"},
		{T: ms(15), Kind: KindSyscallExit, Pid: 1, Name: "splice"},
		{T: ms(15), Kind: KindFSSync, Arg1: 2, Name: "rz58-1"},
		{T: ms(15), Kind: KindBufFlush, Arg1: 2},
		{T: ms(16), Kind: KindProcExit, Pid: 1, Name: "copier"},
	}}
}

func TestExportChromeValidates(t *testing.T) {
	var out bytes.Buffer
	if err := ExportChrome(&out, []Run{syntheticRun()}); err != nil {
		t.Fatalf("export: %v", err)
	}
	n, err := ValidateChrome(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, out.String())
	}
	if n == 0 {
		t.Fatalf("no events exported")
	}
	// The stream must be strict JSON with the trace-event envelope.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("not parseable JSON: %v", err)
	}
	if len(doc.TraceEvents) != n {
		t.Errorf("validator counted %d events, decoder found %d", n, len(doc.TraceEvents))
	}
	got := out.String()
	for _, want := range []string{
		`"process_name"`, `"thread_name"`, `"copier (pid 1)"`,
		`"splice.start"`, `"file-file"`, `"cache"`, `"queue rz58-0"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestExportChromeDeterministic(t *testing.T) {
	runs := []Run{syntheticRun(), {Label: "second", Events: syntheticRun().Events}}
	var a, b bytes.Buffer
	if err := ExportChrome(&a, runs); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := ExportChrome(&b, runs); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("export is not byte-stable across calls")
	}
}

func TestExportChromeClosesOpenSlices(t *testing.T) {
	// A stream that ends mid-syscall and mid-sleep must still balance.
	run := Run{Label: "open", Events: []Event{
		{T: 10, Kind: KindSyscallEnter, Pid: 1, Name: "pause"},
		{T: 20, Kind: KindSchedSleep, Pid: 2, Arg1: 20},
		{T: 30, Kind: KindBufHit, Arg1: 1, Name: "ram-0"},
	}}
	var out bytes.Buffer
	if err := ExportChrome(&out, []Run{run}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := ValidateChrome(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("unbalanced export: %v\n%s", err, out.String())
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"not-json":     `{"traceEvents":[`,
		"no-events":    `{"other":1}`,
		"missing-ph":   `{"traceEvents":[{"name":"x","pid":1,"tid":1,"ts":0}]}`,
		"bad-phase":    `{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":1,"ts":0}]}`,
		"negative-ts":  `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1,"ts":-5}]}`,
		"unbalanced-E": `{"traceEvents":[{"name":"x","ph":"E","pid":1,"tid":1,"ts":0}]}`,
		"open-B":       `{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":1,"ts":0}]}`,
	} {
		if _, err := ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestExportChromeDrawsEveryKind emits one event of every kind, each at
// its own millisecond, and requires every kind outside the documented
// exclusions to appear in the export — so a kind added to the stream
// cannot be silently dropped by the exporter.
func TestExportChromeDrawsEveryKind(t *testing.T) {
	excluded := map[Kind]bool{
		KindCPUUser: true, KindCPUSys: true, KindCPUIntr: true, KindCPUIdle: true, KindCPUSwitch: true,
		KindSchedSwitch: true,                      // names threads
		KindDiskRead:    true, KindDiskWrite: true, // the disk.start slice spans them
	}
	var run Run
	for k := Kind(1); k < kindMax; k++ {
		run.Events = append(run.Events, Event{
			T: sim.Time(int64(k) * int64(sim.Millisecond)), Kind: k, Pid: 1, Arg1: 7, Arg2: 1, Name: "x",
		})
	}
	var out bytes.Buffer
	if err := ExportChrome(&out, []Run{run}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := ValidateChrome(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("export invalid: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	drawn := map[Kind]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			drawn[Kind(ev.Ts/1000)] = true
		}
	}
	for k := Kind(1); k < kindMax; k++ {
		if drawn[k] == excluded[k] {
			t.Errorf("%v: drawn=%v, excluded=%v", k, drawn[k], excluded[k])
		}
	}
}
