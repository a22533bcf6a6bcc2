// Command benchmark is the repository's two-clock benchmark: it drives
// the simulator through its public functions only, runs four named
// workloads in interleaved rounds, and reports what the modelled
// machine achieved in simulated time beside what the simulation cost
// the host. See README.md in this directory for the metric glossary.
//
//	go run ./benchmark -seed 1                       # every workload, both passes
//	go run ./benchmark -workload tables_ram -trace 0 # one workload, end-to-end metrics
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"kdp/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name     = fl.String("workload", "", "run only this workload (default: all four, interleaved)")
		seed     = fl.Uint64("seed", 1, "workload seed: machine PRNGs, file contents, think times and check seeds derive from it")
		seconds  = fl.Float64("seconds", runSeconds, "host seconds to measure per workload and pass")
		pass     = fl.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
		out      = fl.String("out", "", "write the results as JSON to this file")
		outdir   = fl.String("outdir", "benchmark/out", "directory for the traced pass's span and Chrome trace files")
		compare  = fl.Bool("compare", false, "compare two result files given as arguments instead of measuring")
		manifest = fl.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		_, _ = stdout.Write(manifestJSON())
		return 0
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}

	wls := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		wls = []*workloadDef{w}
	}
	var passes []bool // traced?
	switch *pass {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *pass)
		return 2
	}

	// One simulation runs at a time and its processes hand the CPU to
	// each other, so a second P buys nothing but cross-thread wake-ups,
	// and on a shared two-core host it makes the timing bistable: faster
	// whenever a neighbour happens to occupy the other core. With one P
	// what is left of the host's noise is a slow drift, which the
	// yardstick follows.
	runtime.GOMAXPROCS(1)

	res := results{Meta: newMeta(*seed, *seconds), Workloads: map[string]*record{}}
	for _, w := range wls {
		res.Workloads[w.name] = &record{Correct: true, Metrics: map[string]metricValue{}}
	}
	for _, traced := range passes {
		rs, err := measurePass(wls, *seed, *seconds, traced, *outdir)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		for _, r := range rs {
			rec := res.Workloads[r.wl.name]
			var defs []metricDef
			var vals map[string]float64
			if traced {
				defs, vals = perLayer, r.layerMetrics()
				if err := r.writeSpans(*outdir); err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
			} else {
				defs, vals = endToEnd, r.endToEndMetrics()
			}
			rec.add(defs, vals)
			rec.Attempted += r.attempted
			rec.Failed += r.failed
			rec.Correct = rec.Failed == 0
			r.print(stdout, defs, vals)
		}
	}

	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, w := range wls {
		if !res.Workloads[w.name].Correct {
			code = 1
		}
	}
	if len(wls) == 1 {
		// The driver's contract: the last line is the one workload's
		// record.
		b, err := json.Marshal(res.Workloads[wls[0].name])
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// ---- results ----

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's outcome, in the shape the driver reads.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rec *record) add(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

type meta struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
}

func newMeta(seed uint64, seconds float64) meta {
	return meta{
		Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// results is the file -out writes and -compare reads.
type results struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*record `json:"workloads"`
}

// ---- measuring ----

// rounds is how many round-robin turns a pass aims for: workloads run
// a short batch each per round rather than back to back, so that a
// noisy minute on a shared host lands on every workload.
const rounds = 20

// passResult accumulates one workload's iterations in one pass.
type passResult struct {
	wl     *workloadDef
	seed   uint64
	traced bool
	ref    *iter // the warm-up iteration: the reference every later one must repeat
	batch  int   // iterations per round
	next   int   // next iteration id

	// Untraced iterations: set-up and timed-region wall time, and the
	// yardstick that ran beside each.
	setupMs, timedMs, yardMs []float64
	tracedMs                 []float64 // traced iterations' timed regions
	mem                      memDelta
	attempted                int
	failed                   int
	notes                    []string

	spans    []span      // traced pass: every iteration's spans
	selfMs   [][]float64 // traced pass: per untraced iteration, self time per spanNames entry
	hostVals map[string][]float64
	extras   map[string]float64
	probes   map[string]float64
}

type memDelta struct{ bytes, mallocs, gcs, pauseNs uint64 }

func measurePass(wls []*workloadDef, seed uint64, seconds float64, traced bool, outdir string) ([]*passResult, error) {
	start := time.Now()
	var probes map[string]float64
	if traced {
		probes = runProbes()
	}
	rs := make([]*passResult, len(wls))
	for i, w := range wls {
		r := &passResult{wl: w, seed: seed, traced: traced, probes: probes, hostVals: map[string][]float64{}}
		rs[i] = r
		// One untimed warm-up iteration: fills Go's heap and the CPU's
		// caches, and becomes the reference for exactness.
		t0 := time.Now()
		r.ref = r.iteration(traced)
		warm := time.Since(t0)
		if traced {
			if err := writeChrome(outdir, r.ref); err != nil {
				return nil, err
			}
			r.ref.release()
			if w.extras != nil {
				r.extras = w.extras(seed)
			}
		}
		r.batch = max(1, int(seconds/rounds/warm.Seconds()))
	}
	budget := time.Duration(seconds * float64(len(wls)) * float64(time.Second))
	for time.Since(start) < budget {
		for _, r := range rs {
			runtime.GC()
			for i := 0; i < r.batch; i++ {
				r.step()
			}
		}
	}
	return rs, nil
}

// iteration runs one iteration and tallies its verification.
func (r *passResult) iteration(traced bool) *iter {
	it := newIter(r.wl.name, r.next, r.seed, traced)
	it.keep = traced && r.next == 0 // the warm-up iteration is the one exported
	r.next++
	r.wl.iterate(it)
	it.finish()
	if traced {
		it.fold.values(it.vals)
	}
	r.attempted += it.attempted
	r.failed += it.failed
	r.notes = append(r.notes, it.notes...)
	if !it.keep {
		it.release()
	}
	return it
}

// step runs one measured untraced iteration and, in the traced pass, a
// traced one beside it; the difference is the tracing overhead.
func (r *passResult) step() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	it := r.iteration(false)
	runtime.ReadMemStats(&m1)
	r.mem.bytes += m1.TotalAlloc - m0.TotalAlloc
	r.mem.mallocs += m1.Mallocs - m0.Mallocs
	r.mem.gcs += uint64(m1.NumGC - m0.NumGC)
	r.mem.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	r.yardMs = append(r.yardMs, ms(yardstick()))
	r.setupMs = append(r.setupMs, ms(it.hostSetup))
	r.timedMs = append(r.timedMs, ms(it.hostT))
	for k, v := range it.hostVals {
		r.hostVals[k] = append(r.hostVals[k], v)
	}
	r.repeat(it)
	if !r.traced {
		return
	}
	// The phase split comes from the untraced iteration, so that it
	// divides setup_s and host_ms_per_iter like for like.
	r.spans = append(r.spans, it.spans...)
	self := it.selfTimes()
	row := make([]float64, len(spanNames))
	for i, name := range spanNames {
		row[i] = ms(self[name])
	}
	r.selfMs = append(r.selfMs, row)
	if r.ref.built == 0 {
		// simcheck builds and traces its own machines: check_mix has no
		// traced variant to run.
		return
	}
	it = r.iteration(true)
	r.tracedMs = append(r.tracedMs, ms(it.hostT))
	r.spans = append(r.spans, it.spans...)
	r.repeat(it)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// repeat checks that an iteration reproduced the reference exactly:
// every simulated value and count it reports. A mismatch is a failed
// operation.
func (r *passResult) repeat(it *iter) {
	r.attempted++
	ref := r.ref
	var diffs []string
	cmp := func(name string, got, want float64) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", name, got, want))
		}
	}
	cmp("sim_ms", float64(it.simNs), float64(ref.simNs))
	cmp("sim_cpu_ms", float64(it.busyNs), float64(ref.busyNs))
	cmp("events", float64(it.events), float64(ref.events))
	cmp("switches", float64(it.switches), float64(ref.switches))
	cmp("interrupts", float64(it.intrs), float64(ref.intrs))
	cmp("ticks", float64(it.ticks), float64(ref.ticks))
	cmp("recycles", float64(it.recycles), float64(ref.recycles))
	for k, v := range it.vals {
		if want, ok := ref.vals[k]; ok {
			cmp(k, v, want)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("%s iter %d did not repeat iter %d: %s",
			r.wl.name, it.id, ref.id, strings.Join(diffs, "; ")))
	}
}

// ---- metrics ----

// inYardsticks returns a host time in yardsticks, scaled to
// milliseconds: each iteration's time divided by the yardstick that ran
// beside it, averaged over the iterations after dropping the highest and
// lowest tenth. The ratios are not one-sided noise around a floor — a GC
// cycle lands inside a short region or it does not, which makes two
// modes — so a trimmed mean is steadier than a median, which flips
// between the modes.
func (r *passResult) inYardsticks(hostMs []float64) float64 {
	ratios := make([]float64, len(hostMs))
	for i, t := range hostMs {
		ratios[i] = t / r.yardMs[i]
	}
	sort.Float64s(ratios)
	trim := len(ratios) / 10
	kept := ratios[trim : len(ratios)-trim]
	var sum float64
	for _, x := range kept {
		sum += x
	}
	return sum / float64(len(kept)) * yardNominalMs
}

func (r *passResult) endToEndMetrics() map[string]float64 {
	n := float64(len(r.timedMs))
	return map[string]float64{
		"setup_s":                r.inYardsticks(r.setupMs) / 1e3,
		"host_ms_per_iter":       r.inYardsticks(r.timedMs),
		"host_alloc_kb_per_iter": float64(r.mem.bytes) / n / 1024,
		"sim_ms_per_iter":        r.ref.simNs.Milliseconds(),
		"sim_cpu_ms_per_iter":    r.ref.busyNs.Milliseconds(),
	}
}

// spanNames are the phases reported as bench.span.<name>_ms.
var spanNames = slices.Concat(setupPhases, timedPhases, otherPhases)

func (r *passResult) layerMetrics() map[string]float64 {
	v := map[string]float64{}
	for k, x := range r.ref.vals {
		v[k] = x
	}
	for k, x := range r.extras {
		v[k] = x
	}
	for k, x := range r.probes {
		v[k] = x
	}
	v["result.ops_failed_share"] = float64(r.failed) / float64(r.attempted)

	host := summarise(r.timedMs)
	hostMs := r.inYardsticks(r.timedMs)
	n := float64(len(r.timedMs))
	v["sim.events_per_iter"] = float64(r.ref.events)
	v["sim.host_ns_per_event"] = ratio(hostMs*1e6, float64(r.ref.events))
	v["sim.sim_ms_per_host_s"] = ratio(r.ref.simNs.Milliseconds(), hostMs/1e3)
	v["kernel.switches"] = float64(r.ref.switches)
	v["kernel.interrupts"] = float64(r.ref.intrs)
	v["kernel.ticks"] = float64(r.ref.ticks)
	v["buf.recycles"] = float64(r.ref.recycles)
	if len(r.tracedMs) > 0 {
		// Traced against untraced, timed region only; the two alternate,
		// so the host's drift cancels.
		v["trace.overhead_pct"] = 100 * (summarise(r.tracedMs).p50/host.p50 - 1)
	}
	for k, xs := range r.hostVals {
		v[k] = r.inYardsticks(xs)
	}
	for i, name := range spanNames {
		col := make([]float64, len(r.selfMs))
		for j, row := range r.selfMs {
			col[j] = row[i]
		}
		v["bench.span."+name+"_ms"] = summarise(col).p50
	}
	v["host.yardstick_ms"] = summarise(r.yardMs).p50
	v["host.ms_per_iter_p50"] = host.p50
	v["host.ms_per_iter_iqr_pct"] = 100 * (host.p75 - host.p25) / host.p50
	v["host.allocs_per_iter"] = float64(r.mem.mallocs) / n
	v["host.gc_cycles_per_iter"] = float64(r.mem.gcs) / n
	v["host.gc_pause_ms_per_iter"] = float64(r.mem.pauseNs) / n / 1e6
	v["host.peak_rss_mb"] = peakRSSMB()
	return v
}

// peakRSSMB is the process's peak resident set: every workload run so
// far in this process contributes to it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// ---- output ----

func (r *passResult) print(w io.Writer, defs []metricDef, vals map[string]float64) {
	kind := "end-to-end, untraced"
	if r.traced {
		kind = "per-layer, traced pass"
	}
	fmt.Fprintf(w, "\n== %s  (%s; seed %d; %d iterations)\n", r.wl.name, kind, r.seed, len(r.timedMs))
	fmt.Fprintf(w, "   %s\n", r.wl.why)
	for _, d := range defs {
		flag := ""
		if d.Exact {
			flag = "  exact"
		}
		fmt.Fprintf(w, "%-36s %16.4f %-10s%s\n", d.Name, vals[d.Name], d.Unit, flag)
	}
	if !r.traced {
		for _, s := range []struct {
			name string
			xs   []float64
		}{{"timed regions", r.timedMs}, {"set-up", r.setupMs}, {"yardstick", r.yardMs}} {
			d := summarise(s.xs)
			fmt.Fprintf(w, "   raw wall ms, %-14s n=%.0f  p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f\n", s.name+":", d.n, d.p10, d.p25, d.p50, d.p75)
		}
		for _, k := range sortedKeys(r.ref.vals) {
			fmt.Fprintf(w, "   %-33s %16.4f  exact\n", k, r.ref.vals[k])
		}
	}
	fmt.Fprintf(w, "   verified: %d operations attempted, %d failed\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   FAILED: %s\n", n)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeChrome writes a traced iteration's simulated event streams as
// Chrome trace-event JSON and releases them.
func writeChrome(dir string, it *iter) error {
	var runs []trace.Run
	for _, m := range it.machines {
		if m.sink != nil && m.sink.all != nil {
			runs = append(runs, trace.Run{Label: m.label, Events: m.sink.all.Events})
			m.sink.all = nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil || len(runs) == 0 {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+it.workload+".json"))
	if err != nil {
		return err
	}
	if err := trace.ExportChrome(f, runs); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the traced pass's host spans beside the Chrome
// trace.
func (r *passResult) writeSpans(dir string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+r.wl.name+".json"), append(b, '\n'), 0o644)
}
