package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdp/internal/trace"
)

// update is set by `make goldens`, which reruns the pinned-output tests
// to rewrite what they compare against.
var update = flag.Bool("update", false, "rewrite the pinned outputs under testdata/")

// pinned returns the contents of the golden file at path — under -update
// after writing got there, so the caller's comparison holds.
func pinned(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return want
}

func TestTraceSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-disk", "RZ58", "-kb", "32", "-n", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "splice of 32KB on RZ58") {
		t.Errorf("missing splice summary:\n%s", got)
	}
	if !strings.Contains(got, "process rusage:") || !strings.Contains(got, "machine: interrupts=") {
		t.Errorf("missing accounting lines:\n%s", got)
	}
	// -n 2 with a real disk's traffic should truncate the trace, and the
	// notice must quote the exact rerun command.
	if !strings.Contains(got, "more trace lines") {
		t.Errorf("expected truncation notice with -n 2:\n%s", got)
	}
	if !strings.Contains(got, "kdptrace -disk RZ58 -kb 32 -n -1") {
		t.Errorf("truncation notice missing rerun command:\n%s", got)
	}
}

func TestLimitZeroAndAll(t *testing.T) {
	var none, all bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "16", "-n", "0"}, &none); err != nil {
		t.Fatalf("run -n 0: %v", err)
	}
	if err := run([]string{"-disk", "RAM", "-kb", "16", "-n", "-1"}, &all); err != nil {
		t.Fatalf("run -n -1: %v", err)
	}
	if !strings.Contains(none.String(), "more trace lines") {
		t.Errorf("-n 0 should print no lines and a truncation notice:\n%s", none.String())
	}
	if strings.Contains(all.String(), "more trace lines") {
		t.Errorf("-n -1 should print every line with no truncation notice:\n%s", all.String())
	}
	if len(all.String()) <= len(none.String()) {
		t.Errorf("-n -1 output should be strictly longer than -n 0 output")
	}
	for _, want := range []string{"splice.start", "splice.read", "splice.write", "splice.done"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("full trace missing %q event:\n%s", want, all.String())
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	gen := func() string {
		var out bytes.Buffer
		if err := run([]string{"-disk", "RZ58", "-kb", "16", "-n", "-1"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if a, b := gen(), gen(); a != b {
		t.Errorf("trace differs across fresh machines:\n%s\nvs\n%s", a, b)
	}
}

func TestStatsMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "32", "-stats"}, &out); err != nil {
		t.Fatalf("run -stats: %v", err)
	}
	got := out.String()
	for _, want := range []string{"cpu:", "syscalls:", "cache:", "disk "} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in -stats output:\n%s", want, got)
		}
	}
}

// TestServerStatsGolden pins the counter snapshot of the server
// scenario across all four engine/mode sections — including the poll
// and readiness-dispatch counters the event engines introduce. The
// simulation is fully deterministic, so a diff here means a behavior
// change in the modeled kernel, not flakiness. `make goldens`
// regenerates it (alongside kdpbench's table goldens) when the cost
// model shifts; by hand:
//
//	go run ./cmd/kdptrace -server 4 -stats > cmd/kdptrace/testdata/server_stats.golden
func TestServerStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("server scenario sweep in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-server", "4", "-stats"}, &out); err != nil {
		t.Fatalf("run -server 4 -stats: %v", err)
	}
	if want := pinned(t, "testdata/server_stats.golden", out.Bytes()); out.String() != string(want) {
		t.Errorf("server stats differ from golden:\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
	// The sections must pin the event-path counters, not just run.
	for _, counter := range []string{"poll: returns=", "server: accepts=", "ready="} {
		if !strings.Contains(out.String(), counter) {
			t.Errorf("stats missing %q counter:\n%s", counter, out.String())
		}
	}
}

// TestVMStatsGolden pins the counter snapshot of the traced mmap copy,
// including the vm: line (faults, pageins, pageouts, COWs) the VM
// subsystem introduces. The simulation is fully deterministic, so a
// diff here means a behavior change in the modeled kernel, not
// flakiness. `make goldens` regenerates it when the cost model shifts;
// by hand:
//
//	go run ./cmd/kdptrace -disk RAM -kb 64 -mcp -stats > cmd/kdptrace/testdata/vm_stats.golden
func TestVMStatsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "64", "-mcp", "-stats"}, &out); err != nil {
		t.Fatalf("run -mcp -stats: %v", err)
	}
	if want := pinned(t, "testdata/vm_stats.golden", out.Bytes()); out.String() != string(want) {
		t.Errorf("vm stats differ from golden:\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
	// The snapshot must pin the VM counters, not just run.
	for _, counter := range []string{"vm: faults=", "pageins=", "pageouts=", "mmap=", "msync=", "munmap="} {
		if !strings.Contains(out.String(), counter) {
			t.Errorf("stats missing %q counter:\n%s", counter, out.String())
		}
	}
}

// TestMcpTrace covers the -mcp trace-line mode: vm events render in
// the stream, and the truncation notice quotes the exact rerun command
// including the -mcp flag.
func TestMcpTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "64", "-mcp", "-n", "-1"}, &out); err != nil {
		t.Fatalf("run -mcp: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "mcp of 64KB on RAM") {
		t.Errorf("missing mcp summary:\n%s", got)
	}
	for _, want := range []string{"vm.fault", "vm.pagein", "vm.pageout"} {
		if !strings.Contains(got, want) {
			t.Errorf("full -mcp trace missing %q event", want)
		}
	}
	var short bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "64", "-mcp", "-n", "2"}, &short); err != nil {
		t.Fatalf("run -mcp -n 2: %v", err)
	}
	if !strings.Contains(short.String(), "kdptrace -disk RAM -kb 64 -mcp -n -1") {
		t.Errorf("truncation notice missing -mcp rerun command:\n%s", short.String())
	}
}

func TestServerModeSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "1"}, &out); err != nil {
		t.Fatalf("run -server 1: %v", err)
	}
	got := out.String()
	for _, want := range []string{"cp:", "scp:", "event:", "escp:", "request(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in -server summary:\n%s", want, got)
		}
	}
}

func TestJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var out bytes.Buffer
	if err := run([]string{"-disk", "RAM", "-kb", "16", "-n", "0", "-json", path}, &out); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open export: %v", err)
	}
	defer f.Close()
	n, err := trace.ValidateChrome(f)
	if err != nil {
		t.Fatalf("exported JSON invalid: %v", err)
	}
	if n == 0 {
		t.Fatalf("exported JSON has no events")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"stray"},
		{"-disk", "MO"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q): expected error, got nil", args)
		}
	}
}
