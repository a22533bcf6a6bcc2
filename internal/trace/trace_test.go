package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kdp/internal/sim"
)

func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < kindMax; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no canonical name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", int(prev), int(k), name)
		}
		seen[name] = k
		if !k.Valid() {
			t.Errorf("kind %d (%s) should be valid", int(k), name)
		}
	}
	if KindNone.Valid() || kindMax.Valid() || Kind(200).Valid() {
		t.Errorf("sentinel kinds must be invalid")
	}
	if NumKinds != int(kindMax) {
		t.Errorf("NumKinds = %d, want %d", NumKinds, int(kindMax))
	}
}

func TestEventString(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindSchedSwitch, Pid: 3, Name: "copier"}, "switch to copier(pid3)"},
		{Event{Kind: KindSyscallEnter, Pid: 1, Name: "read"}, "syscall read enter pid1"},
		{Event{Kind: KindBufMiss, Arg1: 17, Name: "rz58-0"}, "buf.miss rz58-0 blk 17"},
		{Event{Kind: KindDiskQueue, Arg1: 9, Arg2: 2, Name: "rz58-1"}, "disk.queue rz58-1 blk 9 qlen=2"},
		{Event{Kind: KindSpliceDone, Arg1: 8192, Arg2: 1}, "splice.done 8192B (error)"},
		{Event{Kind: KindSpliceStall, Arg1: 1, Arg2: 4}, "splice.stall pendingReads=1 pendingWrites=4"},
	} {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	// Undefined kinds render without panicking.
	_ = Event{Kind: Kind(250)}.String()
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindBufHit}) // must not panic
	if tr.Metrics() != nil {
		t.Errorf("nil tracer should have nil metrics")
	}
}

func TestTracerMetricsWithoutSink(t *testing.T) {
	tr := New(nil)
	tr.Emit(Event{T: 5, Kind: KindBufHit, Name: "ram-0"})
	tr.Emit(Event{T: 9, Kind: KindBufMiss, Name: "ram-0"})
	m := tr.Metrics()
	if m.BufHits != 1 || m.BufMisses != 1 {
		t.Errorf("metrics not aggregated: hits=%d misses=%d", m.BufHits, m.BufMisses)
	}
	if m.First != 5 || m.Last != 9 {
		t.Errorf("First/Last = %v/%v, want 5/9", m.First, m.Last)
	}
}

func TestCollectorAndTee(t *testing.T) {
	var a, b Collector
	sink := Tee(&a, nil, &b)
	sink.Emit(Event{Kind: KindNetTx, Arg1: 100})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("tee did not duplicate: %d/%d", len(a.Events), len(b.Events))
	}
	a.Reset()
	if len(a.Events) != 0 {
		t.Errorf("reset did not clear events")
	}
}

func TestDigest(t *testing.T) {
	Digest := func(evs []Event) uint64 {
		d := NewDigester()
		for _, ev := range evs {
			d.Emit(ev)
		}
		return d.Sum()
	}
	evs := []Event{
		{T: 1, Kind: KindSyscallEnter, Pid: 1, Name: "read"},
		{T: 2, Kind: KindBufHit, Arg1: 4, Name: "rz58-0"},
		{T: 3, Kind: KindSyscallExit, Pid: 1, Name: "read"},
	}
	if Digest(evs) != Digest(evs) {
		t.Errorf("digest not stable")
	}
	reordered := []Event{evs[1], evs[0], evs[2]}
	if Digest(evs) == Digest(reordered) {
		t.Errorf("digest ignores event order")
	}
	tweaked := append([]Event(nil), evs...)
	tweaked[1].Arg1 = 5
	if Digest(evs) == Digest(tweaked) {
		t.Errorf("digest ignores argument change")
	}
	// The string terminator keeps adjacent names from merging.
	ab := []Event{{Kind: KindBufHit, Name: "ab"}, {Kind: KindBufHit, Name: "c"}}
	ac := []Event{{Kind: KindBufHit, Name: "a"}, {Kind: KindBufHit, Name: "bc"}}
	if Digest(ab) == Digest(ac) {
		t.Errorf("digest merges adjacent names")
	}
}

// TestFnvIntMatchesByteLoop holds fnvInt's folded zero bytes to the
// plain FNV-1a loop over all eight bytes, which every pinned digest was
// computed with: at each byte-length boundary, the sign and extreme
// values, and random values of every length.
func TestFnvIntMatchesByteLoop(t *testing.T) {
	byteLoop := func(h uint64, v int64) uint64 {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= fnvPrime
			u >>= 8
		}
		return h
	}
	vals := []int64{0, 1, 255, 256, 1<<56 - 1, 1 << 56, -1, math.MinInt64, math.MaxInt64}
	r := sim.NewRand(1)
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(r.Uint64()>>(i%64)))
	}
	for _, h := range []uint64{fnvOffset, 0, 0x5a5a5a5a5a5a5a5a} {
		for _, v := range vals {
			if got, want := fnvInt(h, v), byteLoop(h, v); got != want {
				t.Fatalf("fnvInt(%#x, %d) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}

func TestCheckerAcceptsWellFormedStream(t *testing.T) {
	c := NewChecker()
	for _, ev := range []Event{
		{T: 1, Kind: KindSyscallEnter, Pid: 1, Name: "write"},
		{T: 1, Kind: KindBufMiss, Arg1: 3, Name: "ram-0"},
		{T: 4, Kind: KindSyscallExit, Pid: 1, Name: "write"},
		{T: 4, Kind: KindProcExit, Pid: 1, Name: "p"},
	} {
		c.Emit(ev)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
	if err := c.CheckQuiesced(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if c.Events() != 4 {
		t.Errorf("tally = %d, want 4", c.Events())
	}
}

func TestCheckerViolations(t *testing.T) {
	for name, evs := range map[string][]Event{
		"time-backwards": {
			{T: 10, Kind: KindBufHit},
			{T: 9, Kind: KindBufHit},
		},
		"invalid-kind": {{T: 1, Kind: Kind(250)}},
		"negative-pid": {{T: 1, Kind: KindBufHit, Pid: -2}},
		"orphan-exit":  {{T: 1, Kind: KindSyscallExit, Pid: 1, Name: "read"}},
		"name-mismatch": {
			{T: 1, Kind: KindSyscallEnter, Pid: 1, Name: "read"},
			{T: 2, Kind: KindSyscallExit, Pid: 1, Name: "write"},
		},
	} {
		c := NewChecker()
		for _, ev := range evs {
			c.Emit(ev)
		}
		if c.Err() == nil {
			t.Errorf("%s: expected violation, got none", name)
		}
	}

	// Unclosed syscall is fine mid-run but fails quiesce.
	c := NewChecker()
	c.Emit(Event{T: 1, Kind: KindSyscallEnter, Pid: 7, Name: "pause"})
	if c.Err() != nil {
		t.Fatalf("open syscall should not violate mid-run: %v", c.Err())
	}
	if c.CheckQuiesced() == nil {
		t.Errorf("expected quiesce failure with open syscall")
	}
}

// TestCheckQuiescedReportsLowestPid: with several processes left inside
// a syscall the diagnostic names the lowest pid, whatever order the
// checker's map yields them in, so a failing seed replays to one message.
func TestCheckQuiescedReportsLowestPid(t *testing.T) {
	const want = `trace: pid 4 ended with 1 unmatched syscall enter(s), innermost "read"`
	for i := 0; i < 20; i++ {
		c := NewChecker()
		for _, ev := range []Event{
			{T: 1, Kind: KindSyscallEnter, Pid: 9, Name: "pause"},
			{T: 1, Kind: KindSyscallEnter, Pid: 2, Name: "open"},
			{T: 2, Kind: KindSyscallExit, Pid: 2, Name: "open"},
			{T: 2, Kind: KindSyscallEnter, Pid: 4, Name: "read"},
		} {
			c.Emit(ev)
		}
		if err := c.CheckQuiesced(); err == nil || err.Error() != want {
			t.Fatalf("pass %d: CheckQuiesced = %v, want %s", i, err, want)
		}
		if c.Events() != 4 {
			t.Fatalf("tally = %d, want 4", c.Events())
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	tr := New(nil)
	c := NewChecker()
	for _, ev := range []Event{
		{T: 1, Kind: KindBufHit, Name: "ram-0"},
		{T: 2, Kind: KindBufMiss, Name: "ram-0"},
		{T: 3, Kind: KindCPUUser, Pid: 1, Arg1: 100},
	} {
		tr.Emit(ev)
		c.Emit(ev)
	}
	if err := c.CheckMetrics(tr.Metrics()); err != nil {
		t.Fatalf("consistent streams flagged: %v", err)
	}
	// An extra event seen by only one side is drift.
	tr.Emit(Event{T: 4, Kind: KindBufHit, Name: "ram-0"})
	if c.CheckMetrics(tr.Metrics()) == nil {
		t.Errorf("expected drift error")
	}
}

func TestMetricsAggregation(t *testing.T) {
	tr := New(nil)
	for _, ev := range []Event{
		{T: 1, Kind: KindCPUUser, Pid: 1, Arg1: int64(3 * sim.Millisecond)},
		{T: 2, Kind: KindCPUSys, Pid: 1, Arg1: int64(1 * sim.Millisecond)},
		{T: 3, Kind: KindCPUUser, Pid: 2, Arg1: int64(2 * sim.Millisecond)},
		{T: 4, Kind: KindCPUIntr, Arg1: int64(500 * sim.Microsecond)},
		{T: 5, Kind: KindSyscallEnter, Pid: 1, Name: "read"},
		{T: 6, Kind: KindDiskQueue, Arg1: 8, Arg2: 3, Name: "rz58-0"},
		{T: 7, Kind: KindDiskStart, Arg1: 8, Arg2: int64(10 * sim.Millisecond), Name: "rz58-0"},
		{T: 8, Kind: KindDiskRead, Arg1: 8, Arg2: 8192, Name: "rz58-0"},
		{T: 9, Kind: KindBufHit, Name: "rz58-0"},
		{T: 9, Kind: KindBufHit, Name: "rz58-0"},
		{T: 9, Kind: KindBufMiss, Name: "rz58-0"},
		{T: 10, Kind: KindSpliceRead, Arg1: 0, Arg2: 5},
		{T: 11, Kind: KindSpliceReadDone, Arg1: 0, Arg2: 4},
		{T: 12, Kind: KindSpliceDone, Arg1: 1 << 20},
	} {
		tr.Emit(ev)
	}
	m := tr.Metrics()
	if m.CPUUser != 5*sim.Millisecond || m.CPUSys != 1*sim.Millisecond {
		t.Errorf("cpu totals: user=%v sys=%v", m.CPUUser, m.CPUSys)
	}
	procs := m.ProcCPUSnapshot()
	if len(procs) != 2 || procs[0].Pid != 1 || procs[0].User != 3*sim.Millisecond {
		t.Errorf("per-proc snapshot wrong: %+v", procs)
	}
	if got := m.CacheHitRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("hit ratio = %v, want 2/3", got)
	}
	if m.SplicePeakReads != 5 || m.SpliceInflightReads != 4 {
		t.Errorf("splice gauges: peak=%d inflight=%d", m.SplicePeakReads, m.SpliceInflightReads)
	}
	if m.SpliceBytes != 1<<20 {
		t.Errorf("splice bytes = %d", m.SpliceBytes)
	}
	// The running total is the sum of the per-kind counts, and the span
	// starts at the first event.
	var sum int64
	for _, n := range m.EventCount {
		sum += n
	}
	if m.Events() != 14 || sum != 14 || m.First != 1 || m.Last != 12 {
		t.Errorf("events=%d (per-kind sum %d) over t=%dns..%dns, want 14 over 1..12", m.Events(), sum, m.First, m.Last)
	}

	snap := m.Snapshot()
	byName := map[string]int64{}
	for i, c := range snap {
		byName[c.Name] = c.Value
		if i > 0 && snap[i-1].Name >= c.Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, c.Name)
		}
	}
	for name, want := range map[string]int64{
		"cpu.user":               int64(5 * sim.Millisecond),
		"cpu.intr":               int64(500 * sim.Microsecond),
		"cpu.user.pid2":          int64(2 * sim.Millisecond),
		"syscall.read":           1,
		"buf.hits":               2,
		"disk.rz58-0.reads":      1,
		"disk.rz58-0.read_bytes": 8192,
		"disk.rz58-0.busy":       int64(10 * sim.Millisecond),
		"disk.rz58-0.queue_peak": 3,
		"splice.bytes":           1 << 20,
		"events.buf.hit":         2,
	} {
		if got, ok := byName[name]; !ok || got != want {
			t.Errorf("snapshot[%q] = %d (present=%v), want %d", name, got, ok, want)
		}
	}

	var buf bytes.Buffer
	m.Format(&buf)
	out := buf.String()
	for _, want := range []string{"cpu:", "syscalls: 1 read=1", "cache: hits=2", "disk rz58-0:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
