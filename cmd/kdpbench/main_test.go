package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kdp/internal/bench"
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

// TestTableGolden checks the headline tables against golden output.
// The simulation is fully deterministic, so the numbers are stable
// across runs and machines; a diff here means a behavior change in the
// modeled kernel, not flakiness.
func TestTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size table runs in -short mode")
	}
	for _, tc := range []struct {
		flag, golden string
	}{
		{"1", "testdata/table1.golden"},
		{"2", "testdata/table2.golden"},
	} {
		var out bytes.Buffer
		if err := run([]string{"-table", tc.flag}, &out); err != nil {
			t.Fatalf("run -table %s: %v", tc.flag, err)
		}
		if want := pinned(t, tc.golden, out.Bytes()); out.String() != string(want) {
			t.Errorf("table %s differs from %s:\ngot:\n%s\nwant:\n%s",
				tc.flag, tc.golden, out.String(), want)
		}
	}
}

// TestSweepsGolden pins every registered sweep's report and the -series
// view across commits, as TestTableGolden does the two tables: each
// section of the golden file is the output of the command in its
// header. Regenerate with `make goldens`, the reason stated in the PR.
func TestSweepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweeps in -short mode")
	}
	var got bytes.Buffer
	section := func(args ...string) {
		fmt.Fprintf(&got, "== kdpbench %s ==\n", strings.Join(args, " "))
		if err := run(args, &got); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
	}
	for _, sw := range bench.Sweeps {
		section("-sweep", sw.Name)
	}
	section("-series")
	if want := pinned(t, "testdata/sweeps.golden", got.Bytes()); !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("sweeps differ from testdata/sweeps.golden at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("sweeps differ from testdata/sweeps.golden in length: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// TestSweepDocs keeps the sweep lists in README.md and EXPERIMENTS.md
// generated from the registry: the lines below, in bench.Sweeps order,
// must appear verbatim. On failure, paste the printed text.
func TestSweepDocs(t *testing.T) {
	var block strings.Builder
	for _, sw := range bench.Sweeps {
		fmt.Fprintf(&block, "go run ./cmd/kdpbench -sweep %-10s # %s\n", sw.Name, sw.Title)
	}
	line := "go run ./cmd/kdpbench -sweep " + strings.ReplaceAll(bench.SweepNames(), ", ", "|") + "\n"
	for _, doc := range []struct{ path, want string }{
		{"../../EXPERIMENTS.md", block.String()},
		{"../../README.md", line},
	} {
		text, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), doc.want) {
			t.Errorf("%s does not list the registered sweeps; it must contain:\n%s", doc.path, doc.want)
		}
	}
}

// TestExperimentsQuoteGoldens holds EXPERIMENTS.md's two headline tables,
// Ablations A, D, F, G, H, I and J and the server table to the goldens:
// in the "## Table 1" and "## Table 2" sections, the bold ("measured")
// cells of each disk's row must be that disk's golden row — thousands
// separators apart, and Table 1's improvement cell reading "factor
// (percent)" — so a golden that moves cannot leave a stale number in
// the prose.
func TestExperimentsQuoteGoldens(t *testing.T) {
	text, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	bold := regexp.MustCompile(`\*\*([^*]+)\*\*`)
	for _, tc := range []struct{ heading, golden string }{
		{"\n## Table 1 ", "testdata/table1.golden"},
		{"\n## Table 2 ", "testdata/table2.golden"},
	} {
		_, section, ok := strings.Cut(string(text), tc.heading)
		if !ok {
			t.Fatalf("EXPERIMENTS.md has no %q section", strings.TrimSpace(tc.heading))
		}
		section, _, _ = strings.Cut(section, "\n## ")
		golden, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, line := range strings.Split(string(golden), "\n")[2:] { // title, header, then one row per disk
			want := strings.Fields(line)
			if len(want) == 0 {
				continue
			}
			rows++
			var got []string
			for _, docLine := range strings.Split(section, "\n") {
				if cells := strings.Split(docLine, "|"); len(cells) > 1 && strings.TrimSpace(cells[1]) == want[0] {
					for _, m := range bold.FindAllStringSubmatch(docLine, -1) {
						got = append(got, strings.Fields(strings.NewReplacer(",", "", "(", "", ")", "").Replace(m[1]))...)
					}
				}
			}
			if !slices.Equal(got, want[1:]) {
				t.Errorf("EXPERIMENTS.md %s row %s: measured cells %v, %s has %v",
					strings.TrimSpace(tc.heading), want[0], got, tc.golden, want[1:])
			}
		}
		if rows != 3 {
			t.Errorf("%s: %d disk rows, want 3", tc.golden, rows)
		}
	}

	// The ablations and the server table quote their whole tables: the
	// rows of the section, cell for cell, are the sweep's block of
	// sweeps.golden. A row is a table line whose first cell opens a
	// golden row.
	sweeps, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		heading, sweep string
		head, rows     int // lines before the rows (title, header), rows
	}{
		{"\n## Ablation A ", "quantum", 2, 5},
		{"\n## Ablation D ", "filesize", 2, 15},
		{"\n## Ablation F ", "rate", 2, 5},
		{"\n## Ablation G ", "layout", 2, 3},
		{"\n## Ablation H ", "cache", 2, 6},
		{"\n## Ablation I ", "vm", 2, 9},
		{"\n## Ablation J ", "batch", 2, 4},
		{"\n## Server scalability ", "server", 3, 16},
	} {
		_, section, ok := strings.Cut(string(text), tc.heading)
		if !ok {
			t.Fatalf("EXPERIMENTS.md has no %q section", strings.TrimSpace(tc.heading))
		}
		section, _, _ = strings.Cut(section, "\n## ")
		_, block, _ := strings.Cut(string(sweeps), "== kdpbench -sweep "+tc.sweep+" ==\n")
		block, _, _ = strings.Cut(block, "\n== ")
		var got, want [][]string
		for _, line := range strings.Split(block, "\n")[tc.head:] {
			if f := strings.Fields(line); len(f) > 0 {
				want = append(want, f)
			}
		}
		for _, docLine := range strings.Split(section, "\n") {
			f := strings.Fields(strings.ReplaceAll(docLine, "|", " "))
			if strings.HasPrefix(docLine, "|") && len(f) > 0 && slices.ContainsFunc(want, func(w []string) bool { return w[0] == f[0] }) {
				got = append(got, f)
			}
		}
		if len(want) != tc.rows || !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Errorf("EXPERIMENTS.md %s table:\n%v\nsweeps.golden's -sweep %s block (want %d rows):\n%v",
				strings.TrimSpace(tc.heading), got, tc.sweep, tc.rows, want)
		}
	}
}

// TestTableDeterminism runs each table twice on fresh machines — and
// under different GOMAXPROCS — and requires byte-identical output. The
// discrete-event kernel must not leak host-scheduler nondeterminism
// into results.
func TestTableDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size table runs in -short mode")
	}
	genBoth := func() string {
		var out bytes.Buffer
		if err := run([]string{}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}

	prev := runtime.GOMAXPROCS(1)
	first := genBoth()
	runtime.GOMAXPROCS(8)
	second := genBoth()
	runtime.GOMAXPROCS(prev)

	if first != second {
		t.Errorf("table output differs between fresh machines / GOMAXPROCS 1 vs 8:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if !strings.Contains(first, "CPU Availability Factors") ||
		!strings.Contains(first, "Mean Throughput Measurements") {
		t.Errorf("output missing expected table headers:\n%s", first)
	}
}

// TestTraceExport runs one table with -trace under different
// GOMAXPROCS and requires the exported event streams to be
// byte-identical and schema-valid, then exercises -validate on both a
// good and a bad document.
func TestTraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size table runs in -short mode")
	}
	dir := t.TempDir()
	gen := func(name string, procs int) string {
		path := filepath.Join(dir, name)
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var out bytes.Buffer
		if err := run([]string{"-table", "2", "-disks", "RAM", "-trace", path}, &out); err != nil {
			t.Fatalf("run -trace: %v", err)
		}
		return path
	}
	a := gen("a.json", 1)
	b := gen("b.json", 8)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("trace export differs between GOMAXPROCS 1 and 8")
	}
	n, err := trace.ValidateChrome(bytes.NewReader(da))
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatalf("exported trace has no events")
	}

	var out bytes.Buffer
	if err := run([]string{"-validate", a}, &out); err != nil {
		t.Errorf("-validate on good file: %v", err)
	}
	if !strings.Contains(out.String(), "valid Chrome trace") {
		t.Errorf("unexpected -validate output: %s", out.String())
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[{"ph":"E","name":"x","pid":1,"tid":1,"ts":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", bad}, &out); err == nil {
		t.Errorf("-validate accepted malformed trace")
	}
}

func TestCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size table runs in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-table", "1", "-csv", "-disks", "RAM"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "table,disk,f_cp,f_scp,improvement,pct_improve\n") {
		t.Errorf("missing CSV header:\n%s", got)
	}
	if !strings.Contains(got, "1,RAM,") {
		t.Errorf("missing RAM row:\n%s", got)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"stray"},
		{"-disks", "ZIP100"},
		{"-sweep", "nonesuch"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q): expected error, got nil", args)
		}
	}
}
