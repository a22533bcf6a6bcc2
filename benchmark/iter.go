package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// A span is one host-time interval around a call the benchmark makes
// into the simulator. Parent is the ID of the enclosing span (0 for an
// iteration's root); spans of one iteration share Workload and Iter.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Traced   bool   `json:"traced"`   // the iteration ran with tracing on
	StartNs  int64  `json:"start_ns"` // host ns since the process started measuring
	EndNs    int64  `json:"end_ns"`
}

// Span names are the phases of an iteration. The set-up phases make up
// setup_s, the timed phases make up host_ms_per_iter, and verify and
// drain belong to neither: the benchmark's own checking, and the
// simulated machine running to quiescence after the result is known.
var (
	setupPhases = []string{"build", "populate", "coldstart"}
	timedPhases = []string{"move_cp", "move_scp", "move_mcp", "avail_cp", "avail_scp", "check"}
	otherPhases = []string{"verify", "drain"}
)

var epoch = time.Now()

// mach is one simulated machine an iteration built: what the windows
// and the trace fold need to know about it.
type mach struct {
	label string
	// role is "cp" or "scp" on the machines whose CPU ledger is
	// reported per data path, "" elsewhere.
	role   string
	k      *kernel.Kernel
	cache  *buf.Cache
	ndisks int
	sink   *windowSink   // nil when untraced
	ledger *trace.Tracer // the role's CPU ledger in a traced iteration, else nil
}

// windowSink is the trace sink of a traced machine. Events inside a
// timed window are folded into the iteration's layer counts as they
// arrive; the rest are dropped, so that the set-up writes and the
// benchmark's read-back do not pollute the hit ratios and a traced
// iteration holds no event stream in memory. The iteration that is
// exported as Chrome JSON also keeps in all every event the exporter
// renders (it leaves out the high-frequency CPU accounting kinds).
type windowSink struct {
	it   *iter
	m    *mach
	open bool
	all  *trace.Collector
}

func (s *windowSink) Emit(ev trace.Event) {
	if s.all != nil && (ev.Kind < trace.KindCPUUser || ev.Kind > trace.KindCPUSwitch) {
		s.all.Emit(ev)
	}
	if s.open {
		s.it.fold.emit(s.m, ev)
	}
}

// iter records one iteration of one workload: host spans, what the
// timed windows covered in simulated time, the exact results, and the
// verification tally.
type iter struct {
	workload string
	id       int
	seed     uint64
	traced   bool
	// keep makes a traced iteration retain its event streams for export.
	keep bool
	fold *layerFold // traced iterations only

	spans []span
	open  []int // stack of indexes into spans

	// machines are the simulated machines being built and run; release
	// drops them, leaving their number in built.
	machines []*mach
	built    int

	// Simulated time, busy CPU and events dispatched inside the timed
	// windows; machine-lifetime scheduler counts.
	simNs, busyNs    sim.Duration
	events           uint64
	switches, intrs  int64
	ticks, recycles  int64
	hostSetup, hostT time.Duration

	// vals are the iteration's exact results by metric name: simulated
	// values and counts that must repeat for a given seed.
	vals map[string]float64

	attempted, failed int
	notes             []string

	// hostVals are host-clock values a workload measures itself, by
	// per-layer metric name.
	hostVals map[string]float64
}

func newIter(workload string, id int, seed uint64, traced bool) *iter {
	it := &iter{workload: workload, id: id, seed: seed, traced: traced, vals: map[string]float64{}}
	if traced {
		it.fold = newLayerFold()
	}
	it.begin("iteration")
	return it
}

func (it *iter) begin(name string) int {
	parent := 0
	if n := len(it.open); n > 0 {
		parent = it.spans[it.open[n-1]].ID
	}
	it.spans = append(it.spans, span{
		ID: it.id*1000 + len(it.spans) + 1, Parent: parent, Name: name,
		Workload: it.workload, Iter: it.id, Traced: it.traced, StartNs: int64(time.Since(epoch)),
	})
	it.open = append(it.open, len(it.spans)-1)
	return len(it.spans) - 1
}

// end closes the innermost open span, which must be idx: the simulator
// runs one process at a time, so spans opened from process bodies nest
// like calls on one goroutine.
func (it *iter) end(idx int) {
	n := len(it.open)
	if n == 0 || it.open[n-1] != idx {
		panic(fmt.Sprintf("benchmark: span %q closed out of order", it.spans[idx].Name))
	}
	it.open = it.open[:n-1]
	sp := &it.spans[idx]
	sp.EndNs = int64(time.Since(epoch))
	d := time.Duration(sp.EndNs - sp.StartNs)
	switch {
	case slices.Contains(setupPhases, sp.Name):
		it.hostSetup += d
	case slices.Contains(timedPhases, sp.Name):
		it.hostT += d
	}
}

func (it *iter) phase(name string, fn func()) {
	idx := it.begin(name)
	fn()
	it.end(idx)
}

// finish closes the root span.
func (it *iter) finish() { it.end(0) }

// release drops the iteration's machines, so that a retained iteration
// does not keep their disks' media arrays alive.
func (it *iter) release() {
	it.built = len(it.machines)
	it.machines = nil
}

// fail counts one verification failure.
func (it *iter) fail(format string, args ...any) {
	it.failed++
	if len(it.notes) < 8 {
		it.notes = append(it.notes, fmt.Sprintf("%s iter %d: ", it.workload, it.id)+fmt.Sprintf(format, args...))
	}
}

// machine registers a simulated machine. sink is what the machine's
// kernel must be started with: nil unless the iteration is traced.
func (it *iter) machine(label, role string) (m *mach, sink trace.Sink) {
	m = &mach{label: label, role: role}
	it.machines = append(it.machines, m)
	if !it.traced {
		return m, nil
	}
	m.sink = &windowSink{it: it, m: m}
	m.ledger = it.fold.ledger[role]
	if it.keep {
		m.sink.all = &trace.Collector{}
	}
	return m, m.sink
}

// A window is a timed region on one machine: a host span plus the
// simulated time, CPU time and events it covered. bg, when non-nil, is
// the CPU-bound test program running alongside: its own compute is not
// CPU the workload's I/O consumed, so the window leaves it out.
type window struct {
	it    *iter
	m     *mach
	bg    *kernel.Proc
	idx   int
	s0    kernel.CPUStats
	bg0   sim.Duration
	f0    uint64
	recy0 int64
}

func (it *iter) openWindow(name string, m *mach, bg *kernel.Proc) *window {
	w := &window{it: it, m: m, bg: bg, s0: m.k.Stats(), f0: m.k.Engine().Fired()}
	if bg != nil {
		w.bg0 = bg.UserTime()
	}
	if m.cache != nil {
		w.recy0 = m.cache.Stats().Recycles
	}
	if m.sink != nil {
		m.sink.open = true
	}
	w.idx = it.begin(name)
	return w
}

// close ends the window and returns the simulated time it covered and
// how much CPU the work in it consumed.
func (w *window) close() (elapsed, busy sim.Duration) {
	it, m := w.it, w.m
	it.end(w.idx)
	if m.sink != nil {
		m.sink.open = false
		it.fold.diskSpan += m.k.Now().Sub(w.s0.Now) * sim.Duration(m.ndisks)
	}
	s1 := m.k.Stats()
	elapsed = s1.Now.Sub(w.s0.Now)
	busy = elapsed - (s1.Idle - w.s0.Idle)
	if w.bg != nil {
		busy -= w.bg.UserTime() - w.bg0
	}
	it.simNs += elapsed
	it.busyNs += busy
	it.events += m.k.Engine().Fired() - w.f0
	if m.cache != nil {
		it.recycles += m.cache.Stats().Recycles - w.recy0
	}
	return elapsed, busy
}

// retire adds a finished machine's lifetime scheduler counts.
func (it *iter) retire(m *mach) {
	s := m.k.Stats()
	it.switches += s.Switches
	it.intrs += s.Interrupts
	it.ticks += s.Ticks
}

// selfTimes returns, per span name, the iteration's host self time:
// each span's duration minus the part its children cover.
func (it *iter) selfTimes() map[string]time.Duration {
	child := map[int]int64{}
	for _, sp := range it.spans {
		child[sp.Parent] += sp.EndNs - sp.StartNs
	}
	out := map[string]time.Duration{}
	for _, sp := range it.spans {
		name := sp.Name
		if strings.HasPrefix(name, "machine:") {
			name = "drain"
		}
		out[name] += time.Duration(sp.EndNs - sp.StartNs - child[sp.ID])
	}
	return out
}
