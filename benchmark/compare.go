package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints every (workload, metric) pair of two result files
// with both values and the relative difference of the second against
// the first. Exact metrics that differ at all are flagged: they are
// simulated values and counts, so a difference is a change to the
// model and needs a stated reason. The exit code is non-zero when an
// end-to-end metric is worse in the second file by more than its bound.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareResults(a, b *results, w io.Writer) int {
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	fmt.Fprintf(w, "a: seed %d, %gs, %s, nproc %d, GOMAXPROCS %d\n", a.Meta.Seed, a.Meta.Seconds, a.Meta.GoVersion, a.Meta.NProc, a.Meta.GOMAXPROCS)
	fmt.Fprintf(w, "b: seed %d, %gs, %s, nproc %d, GOMAXPROCS %d\n", b.Meta.Seed, b.Meta.Seconds, b.Meta.GoVersion, b.Meta.NProc, b.Meta.GOMAXPROCS)
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressions, exactDiffs := 0, 0
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		fmt.Fprintf(w, "\n== %s  (failed %d/%d vs %d/%d)\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		var metrics []string
		for m := range ra.Metrics {
			if _, ok := rb.Metrics[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va, vb := ra.Metrics[m].Value, rb.Metrics[m].Value
			d := defs[m]
			rel := 0.0
			if va != 0 {
				rel = (vb - va) / va
			} else if vb != 0 {
				rel = 1
			}
			note := ""
			if d.Exact && va != vb {
				note = "  EXACT METRIC DIFFERS"
				exactDiffs++
			}
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			if d.Bound > 0 && worse > d.Bound {
				note += fmt.Sprintf("  WORSE BY MORE THAN %.0f%%", 100*d.Bound)
				regressions++
			}
			fmt.Fprintf(w, "%-36s %16.4f %16.4f %+9.2f%% %-10s%s\n", m, va, vb, 100*rel, ra.Metrics[m].Unit, note)
		}
	}
	fmt.Fprintf(w, "\n%d exact metrics differ; %d end-to-end metrics worse by more than their bound\n", exactDiffs, regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}
