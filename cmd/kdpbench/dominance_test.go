package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"kdp/internal/kernel"
)

// The paper's dominance claims as checked relations (ROADMAP item
// 8(c)): on every sweeps.golden row that prints cp and scp, scp moves at
// least as many KB/s, keeps the CPU busy for less time, and leaves the
// test program at least as much of it. They read the golden, so they
// cost no simulation.

// relation is one claim, keyed by the name of the column it reads: a
// row-per-mode table's own column ("KB/s"), or a side-by-side table's
// with its "SCP " and "CP " prefixes cut ("environment" is -series's
// per-window share of the CPU the test program got, its availability).
type relation struct {
	name  string
	holds func(cp, scp float64) bool
	says  string
}

var relations = map[string]relation{
	"KB/s":        {"perf-scp-kbs", func(cp, scp float64) bool { return scp >= cp }, "scp moves fewer KB/s than cp"},
	"CPU busy":    {"perf-scp-cpu", func(cp, scp float64) bool { return scp < cp }, "scp keeps the CPU busy no less than cp"},
	"Avail":       {"perf-scp-avail", func(cp, scp float64) bool { return scp >= cp }, "scp leaves less of the CPU available than cp"},
	"environment": {"perf-scp-avail", func(cp, scp float64) bool { return scp >= cp }, "scp leaves less of the CPU available than cp"},
}

// A column name is words joined by single spaces; columns are at least
// two spaces apart.
var (
	columnRE = regexp.MustCompile(`\S+(?: \S+)*`)
	fieldRE  = regexp.MustCompile(`\S+`)
)

type column struct {
	name       string
	start, end int
}

// cell returns the field of line that overlaps col, whose header is
// left- or right-aligned with it, or "".
func cell(line string, col column) string {
	for _, f := range fieldRE.FindAllStringIndex(line, -1) {
		if f[0] < col.end && f[1] > col.start {
			return line[f[0]:f[1]]
		}
	}
	return ""
}

// value reads a cell as a number: a duration in seconds, a percentage
// without its sign, or a plain count.
func value(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
}

// dominance checks every relation on every cp/scp pair in golden, the
// text of sweeps.golden, and returns how many pairs each relation
// checked and the first one broken, as a kernel.Violation. A table with
// a Mode column pairs its cp and scp rows by the cells left of Mode; a
// table with "SCP x" and "CP x" columns pairs them within each row. A
// blank line ends a table.
func dominance(golden string) (map[string]int, error) {
	checked := map[string]int{}
	var cols []column
	mode := -1
	cps := map[string][]string{} // a row-per-mode table's cp rows, by key
	for n, line := range strings.Split(golden, "\n") {
		at := fmt.Sprintf("sweeps.golden:%d", n+1)
		var head []column
		isHead := false
		for _, ix := range columnRE.FindAllStringIndex(line, -1) {
			c := column{line[ix[0]:ix[1]], ix[0], ix[1]}
			head = append(head, c)
			isHead = isHead || c.name == "Mode" || strings.HasPrefix(c.name, "SCP ")
		}
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(line, "== "):
			cols = nil
			continue
		case isHead:
			cols, mode = head, -1
			clear(cps)
			for i, c := range cols {
				if c.name == "Mode" {
					mode = i
				}
			}
			continue
		case cols == nil:
			continue
		}
		check := func(base, cpCell, scpCell string) error {
			r, ok := relations[base]
			if !ok {
				return nil
			}
			cp, err1 := value(cpCell)
			scp, err2 := value(scpCell)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%s: %s column: cp %q, scp %q: not numbers", at, base, cpCell, scpCell)
			}
			checked[r.name]++
			if !r.holds(cp, scp) {
				return kernel.Violation(r.name, "%s: %s: cp %s, scp %s (%s)", at, r.says, cpCell, scpCell, strings.Join(strings.Fields(line), " "))
			}
			return nil
		}
		if mode < 0 {
			for _, s := range cols {
				base, ok := strings.CutPrefix(s.name, "SCP ")
				if !ok {
					continue
				}
				for _, c := range cols {
					if c.name == "CP "+base {
						if err := check(base, cell(line, c), cell(line, s)); err != nil {
							return checked, err
						}
					}
				}
			}
			continue
		}
		key := strings.Join(strings.Fields(line[:min(len(line), cols[mode].start)]), " ")
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = cell(line, c)
		}
		switch cells[mode] {
		case "cp":
			cps[key] = cells
		case "scp":
			cp, ok := cps[key]
			if !ok {
				return checked, fmt.Errorf("%s: an scp row with no cp row before it", at)
			}
			for i, c := range cols {
				if err := check(c.name, cp[i], cells[i]); err != nil {
					return checked, err
				}
			}
		}
	}
	return checked, nil
}

// TestDominance holds today's sweeps.golden to the three relations. The
// counts are the pairs each must find, so a golden whose layout drifts
// away from the parser fails here instead of passing unread: KB/s on
// Ablations D (15 rows), G (3), I (3) and J (1) and the server sweep
// (4), busy CPU on I and J, availability on the server sweep and
// -series's 30 windows.
func TestDominance(t *testing.T) {
	golden, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := dominance(string(golden))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"perf-scp-kbs": 26, "perf-scp-cpu": 4, "perf-scp-avail": 34}
	for name, n := range want {
		if checked[name] != n {
			t.Errorf("%s checked %d cp/scp pairs, want %d", name, checked[name], n)
		}
	}
}

// tracks is the band within which the event loop's availability
// follows the process-per-connection server's on the same data path, in
// points: the golden prints one decimal, and no row differs by more.
const tracks = 0.2

// tracking checks, on every client count of the server sweep in golden,
// that event's availability is within tracks of cp's and escp's of
// scp's, and returns how many pairs it checked and the first it found
// apart.
func tracking(golden string) (int, error) {
	_, table, _ := strings.Cut(golden, "== kdpbench -sweep server ==\n")
	table, _, _ = strings.Cut(table, "\n== ")
	avail := map[string]float64{} // by clients and mode
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || !strings.HasSuffix(f[3], "%") {
			continue
		}
		v, err := value(f[3])
		if err != nil {
			return 0, fmt.Errorf("server sweep row %q: %v", line, err)
		}
		avail[f[0]+" "+f[1]] = v
	}
	checked := 0
	for _, n := range []string{"1", "2", "4", "8"} {
		for _, pair := range [][2]string{{"cp", "event"}, {"scp", "escp"}} {
			procs, ok1 := avail[n+" "+pair[0]]
			event, ok2 := avail[n+" "+pair[1]]
			if !ok1 || !ok2 {
				return checked, fmt.Errorf("server sweep: no %s or %s row at %s clients", pair[0], pair[1], n)
			}
			checked++
			if math.Abs(event-procs) > tracks+1e-9 {
				return checked, fmt.Errorf("server sweep, %s clients: %s availability %.1f%% is not within %.1f points of %s's %.1f%%",
					n, pair[1], event, tracks, pair[0], procs)
			}
		}
	}
	return checked, nil
}

// TestEventTracksProcs holds the server sweep's finding that the data
// path sets availability and the process model does not: at 1, 2, 4
// and 8 clients event tracks cp, and escp scp, within two tenths of a
// point, whichever is ahead. A row planted a point apart must fail it.
func TestEventTracksProcs(t *testing.T) {
	golden, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	if checked, err := tracking(string(golden)); err != nil || checked != 8 {
		t.Fatalf("tracking checked %d pairs, want 8: %v", checked, err)
	}
	const row = "8        escp          336      87.6%"
	if strings.Count(string(golden), row) != 1 {
		t.Fatalf("sweeps.golden holds %q %d times, want once", row, strings.Count(string(golden), row))
	}
	planted := strings.Replace(string(golden), row, "8        escp          336      88.6%", 1)
	if _, err := tracking(planted); err == nil {
		t.Error("an escp row a point above scp's passed")
	}
}

// TestDominanceTrips plants one broken relation of each kind in a copy
// of the golden: the check must name it. It also holds docs/CHECKING.md
// to the names, which TestInvariantCatalog does not read in test code.
func TestDominanceTrips(t *testing.T) {
	golden, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/CHECKING.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, row, planted string }{
		// Ablation D: RZ58 at 8 MB, scp slower than cp.
		{"perf-scp-kbs", "RZ58          8            925            783", "RZ58          8            719            783"},
		// Ablation I: RZ58 scp as busy as cp.
		{"perf-scp-cpu", "RZ58   scp            925        2.36s", "RZ58   scp            925        5.95s"},
		// The server sweep: 8 clients, scp's availability under cp's.
		{"perf-scp-avail", "8        scp           336      87.5%", "8        scp           336      67.5%"},
		// -series: one RZ56 window where the test program got less under scp.
		{"perf-scp-avail", "7           62% ############             98% ####################", "7           62% ############             60% ############"},
	} {
		if strings.Count(string(golden), tc.row) != 1 {
			t.Fatalf("sweeps.golden holds %q %d times, want once", tc.row, strings.Count(string(golden), tc.row))
		}
		_, err := dominance(strings.Replace(string(golden), tc.row, tc.planted, 1))
		if got := kernel.ViolationName(err); got != tc.name {
			t.Errorf("planted %q: got %v, want %s", tc.planted, err, tc.name)
		}
		if !strings.Contains(string(doc), "`"+tc.name+"`") {
			t.Errorf("docs/CHECKING.md does not list %s", tc.name)
		}
	}
}
