package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// once runs one untraced iteration of a workload.
func once(w *workloadDef, seed uint64) *iter {
	it := newIter(w.name, 0, seed, false)
	w.iterate(it)
	it.finish()
	return it
}

// goldenRow returns the fields of a disk's row in one of kdpbench's
// committed golden tables.
func goldenRow(t *testing.T, file, disk string) []string {
	t.Helper()
	b, err := os.ReadFile("../cmd/kdpbench/testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == disk {
			return f
		}
	}
	t.Fatalf("%s has no %s row", file, disk)
	return nil
}

// TestWorkloadsRepeatAndMatchGoldens runs one iteration of each workload
// twice: every simulated value and exact count must repeat, and at seed
// 1 the tables workloads must reproduce kdpbench's committed Table 1
// and Table 2 cells, so the benchmark cannot drift from kdpbench.
func TestWorkloadsRepeatAndMatchGoldens(t *testing.T) {
	scale = 4 // serve_net and check_mix shrink; the tables keep the paper's size
	defer func() { scale = 1 }()
	for _, w := range workloads {
		a, b := once(w, 1), once(w, 1)
		for _, it := range []*iter{a, b} {
			if it.failed != 0 || it.attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.name, it.failed, it.attempted, it.notes)
			}
		}
		r := &passResult{wl: w, ref: a}
		r.repeat(b)
		if r.failed != 0 {
			t.Errorf("%s: %v", w.name, r.notes)
		}
		if a.simNs <= 0 || a.busyNs <= 0 || a.hostSetup <= 0 || a.hostT <= 0 {
			t.Errorf("%s: an end-to-end metric is zero: sim %v cpu %v setup %v timed %v",
				w.name, a.simNs, a.busyNs, a.hostSetup, a.hostT)
		}
		disk := map[string]string{"tables_ram": "RAM", "tables_rz58": "RZ58"}[w.name]
		if disk == "" {
			continue
		}
		t2 := goldenRow(t, "table2.golden", disk)
		t1 := goldenRow(t, "table1.golden", disk)
		for _, c := range []struct{ cell, got, want string }{
			{"Table 2 scp KB/s", fmt.Sprintf("%.0f", a.vals["result.sim_kbs_scp"]), t2[1]},
			{"Table 2 cp KB/s", fmt.Sprintf("%.0f", a.vals["result.sim_kbs_cp"]), t2[2]},
			{"Table 1 F_cp", fmt.Sprintf("%.2f", 100/a.vals["result.sim_avail_pct_cp"]), t1[1]},
			{"Table 1 F_scp", fmt.Sprintf("%.2f", 100/a.vals["result.sim_avail_pct_scp"]), t1[2]},
		} {
			if c.got != c.want {
				t.Errorf("%s %s = %s, kdpbench's golden says %s", w.name, c.cell, c.got, c.want)
			}
		}
		if a.vals["result.sim_paper_err_pct"] <= 0 {
			t.Errorf("%s: no error figure against the paper", w.name)
		}
	}
}

// TestManifest checks that the committed BENCHMARK.json is what the
// program's metric tables render, and that it keeps to the contract's
// limits and name grammar.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			check(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the grammar", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "bench.span.") {
			phase := strings.TrimSuffix(strings.TrimPrefix(d.Name, "bench.span."), "_ms")
			if !slices.Contains(spanNames, phase) {
				t.Errorf("%s names no phase", d.Name)
			}
		}
	}
}

// TestCompare checks that -compare flags an exact metric that moved and
// fails only when an end-to-end metric worsened past its bound.
func TestCompare(t *testing.T) {
	mk := func(hostMs, simMs, kbs float64) *results {
		return &results{Workloads: map[string]*record{"tables_ram": {Correct: true, Attempted: 5, Metrics: map[string]metricValue{
			"host_ms_per_iter":  {hostMs, "ms"},
			"sim_ms_per_iter":   {simMs, "sim_ms"},
			"result.sim_kbs_cp": {kbs, "sim_KB/s"},
		}}}}
	}
	base := mk(100, 28000, 2010)
	for _, c := range []struct {
		name string
		b    *results
		code int
		want string
	}{
		{"same", mk(100, 28000, 2010), 0, "0 exact metrics differ; 0 end-to-end"},
		{"noise within bound", mk(115, 28000, 2010), 0, "0 exact metrics differ; 0 end-to-end"},
		{"faster", mk(50, 28000, 2010), 0, "0 end-to-end"},
		{"host regression", mk(130, 28000, 2010), 1, "WORSE BY MORE THAN 25%"},
		{"model change", mk(100, 28001, 2009), 0, "2 exact metrics differ"},
	} {
		var out bytes.Buffer
		if code := compareResults(base, c.b, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}
}

// TestRunRejectsBadArguments covers the command line's error paths.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
		{"-compare", "missing-a.json", "missing-b.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
