package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*Microsecond, "c", func() { got = append(got, 3) })
	e.Schedule(10*Microsecond, "a", func() { got = append(got, 1) })
	e.Schedule(20*Microsecond, "b", func() { got = append(got, 2) })
	for e.RunNext() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != Time(30*Microsecond) {
		t.Fatalf("clock = %v, want 30us", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Millisecond, "tie", func() { got = append(got, i) })
	}
	for e.RunNext() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order wrong at %d: %v", i, got)
		}
	}
}

func TestEngineConsumeDelaysEvents(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	e.Schedule(100*Microsecond, "x", func() { firedAt = e.Now() })
	e.Consume(250 * Microsecond) // clock passes the event without firing it
	if e.Fired() != 0 {
		t.Fatal("Consume must not dispatch events")
	}
	e.RunDue()
	if firedAt != Time(250*Microsecond) {
		t.Fatalf("late event fired at %v, want 250us (current clock)", firedAt)
	}
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Duration(i)*Millisecond, "n", func() { count++ })
	}
	e.AdvanceTo(Time(3 * Millisecond))
	if count != 3 {
		t.Fatalf("fired %d events, want 3", count)
	}
	if e.Now() != Time(3*Millisecond) {
		t.Fatalf("clock = %v, want 3ms", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
}

func TestEngineRescheduleFromHandler(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 5 {
			e.Schedule(Millisecond, "tick", tick)
		}
	}
	e.Schedule(Millisecond, "tick", tick)
	for e.RunNext() {
	}
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("clock = %v, want 5ms", e.Now())
	}
}

func TestEngineNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime ok on empty queue")
	}
	e.Schedule(7*Millisecond, "x", func() {})
	tm, ok := e.NextEventTime()
	if !ok || tm != Time(7*Millisecond) {
		t.Fatalf("NextEventTime = %v,%v", tm, ok)
	}
}

func TestBytesAt(t *testing.T) {
	if d := BytesAt(1_000_000, 1e6); d != Second {
		t.Fatalf("1MB at 1MB/s = %v, want 1s", d)
	}
	if d := BytesAt(8192, 8.192e6); d != Millisecond {
		t.Fatalf("8KB at 8.192MB/s = %v, want 1ms", d)
	}
	if d := BytesAt(100, 0); d != 0 {
		t.Fatalf("zero rate should cost nothing, got %v", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		2 * Second:                 "2.000s",
		1500 * Microsecond:         "1.500ms",
		250 * Microsecond:          "250.000us",
		42:                         "42ns",
		Duration(0):                "0ns",
		3*Second + 250*Millisecond: "3.250s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded generators diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	bound := func(n int64) bool {
		if n <= 0 {
			n = 1 - n // map to positive
		}
		v := r.Int63n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(bound, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandUniformish(t *testing.T) {
	r := NewRand(99)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d grossly non-uniform: %d of %d", i, c, n)
		}
	}
}

// scheduleRun is the benchmark probe's loop: eight events in, eight out.
func scheduleRun(e *Engine, fn func(), rounds int) {
	for i := 0; i < rounds*8; i++ {
		e.Schedule(Duration(i%64), "", fn)
		if i%8 == 7 {
			for j := 0; j < 8; j++ {
				e.RunNext()
			}
		}
	}
}

// TestScheduleRunAllocatesNothing: once the queue has grown to its
// working set, scheduling and dispatching an event allocates nothing.
func TestScheduleRunAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	scheduleRun(e, fn, 4) // warm-up: grows the queue
	if a := testing.AllocsPerRun(100, func() { scheduleRun(e, fn, 4) }); a != 0 {
		t.Fatalf("schedule + dispatch allocated %.1f times per run, want 0", a)
	}
}

// TestPopReleasesHandler: a dispatched event's slot does not keep its
// handler reachable from the queue's backing array.
func TestPopReleasesHandler(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Duration(i), "x", func() {})
	}
	for e.RunNext() {
	}
	for i, ev := range e.queue[:cap(e.queue)] {
		if ev.fn != nil {
			t.Fatalf("slot %d past len still holds a handler", i)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheduleRun(e, fn, 1)
	}
}
