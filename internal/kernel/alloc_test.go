package kernel

import (
	"testing"

	"kdp/internal/sim"
)

// Allocation budgets of the kernel's per-event records: once the free
// lists hold a machine's working set, a timer and a process switch ask
// the Go heap for nothing.

// armAndFire arms a batch of one-tick callouts and sleeps until the
// clock has fired them: the benchmark's kernel.probe.callout_ns round.
func armAndFire(p *Proc, fn func()) {
	const batch = 32
	for i := 0; i < batch; i++ {
		p.k.Timeout(fn, 1)
	}
	p.SleepFor(2 * p.k.cfg.TickDuration())
}

func TestCalloutArmFireAllocatesNothing(t *testing.T) {
	k := New(DefaultConfig())
	fired, allocs := 0, -1.0
	fn := func() { fired++ }
	k.Spawn("timer", func(p *Proc) {
		armAndFire(p, fn) // warm-up: fills the callout free list
		allocs = testing.AllocsPerRun(50, func() { armAndFire(p, fn) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 52 * 32; fired != want {
		t.Fatalf("%d callouts fired, want %d", fired, want)
	}
	if allocs != 0 {
		t.Fatalf("arming and firing 32 callouts allocated %.1f times, want 0", allocs)
	}
}

func TestSleepWakeupAllocatesNothing(t *testing.T) {
	k := New(DefaultConfig())
	turn, stop, allocs := 0, false, -1.0
	handoff := func(p *Proc, me int) {
		for turn != me {
			_ = p.Sleep(&turn, PWAIT)
		}
		turn = 1 - me
		k.Wakeup(&turn)
	}
	k.Spawn("ping", func(p *Proc) {
		handoff(p, 0) // warm-up: the run queue and the sleep table have grown
		allocs = testing.AllocsPerRun(200, func() { handoff(p, 0) })
		stop = true
	})
	k.Spawn("pong", func(p *Proc) {
		for !stop {
			handoff(p, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a sleep/wakeup round trip allocated %.1f times, want 0", allocs)
	}
}

// TestParkWakeFireAllocatesNothing: a callout parked on a channel,
// moved to the callout list by the channel's wakeup and fired by
// softclock takes its record off the free list, and its channel's entry
// reuses the sleep table's storage.
func TestParkWakeFireAllocatesNothing(t *testing.T) {
	k := New(DefaultConfig())
	var ch byte
	fired, allocs := 0, -1.0
	fn := func() { fired++ }
	round := func(p *Proc) {
		for i := 0; i < 32; i++ {
			k.Park(&ch, fn)
		}
		k.Wakeup(&ch)
		p.SleepFor(k.cfg.TickDuration())
	}
	k.Spawn("waker", func(p *Proc) {
		round(p) // warm-up: fills the callout free list
		allocs = testing.AllocsPerRun(50, func() { round(p) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 52 * 32; fired != want {
		t.Fatalf("%d parked callouts fired, want %d", fired, want)
	}
	if allocs != 0 {
		t.Fatalf("parking, waking and firing 32 callouts allocated %.1f times, want 0", allocs)
	}
}

// TestStaleCalloutHandle: a handle kept past the firing, or the
// cancellation, of its callout names a record that later timers reuse.
// Untimeout on it must return false and leave those timers alone.
func TestStaleCalloutHandle(t *testing.T) {
	k := testKernel()
	var log []string
	note := func(s string) func() { return func() { log = append(log, s) } }
	k.Spawn("t", func(p *Proc) {
		tick := k.cfg.TickDuration()
		fired := k.Timeout(note("a"), 1)
		cancelled := k.Timeout(note("b"), 1)
		if !k.Untimeout(cancelled) || k.Untimeout(cancelled) {
			t.Error("Untimeout did not cancel a queued callout exactly once")
		}
		p.SleepFor(2 * tick) // a fires; both records are free again
		if k.Untimeout(fired) {
			t.Error("Untimeout cancelled a callout that had already fired")
		}

		// The next timers reuse the two records.
		c, d := k.Timeout(note("c"), 1), k.Timeout(note("d"), 1)
		if c.c != fired.c && c.c != cancelled.c || d.c != fired.c && d.c != cancelled.c {
			t.Error("the free list did not hand the fired and cancelled records out again")
		}
		if k.Untimeout(fired) || k.Untimeout(cancelled) || k.Untimeout(Callout{}) {
			t.Error("a stale or zero handle cancelled something")
		}
		if k.PendingCallouts() != 2 {
			t.Errorf("%d callouts pending after stale Untimeouts, want 2", k.PendingCallouts())
		}
		p.SleepFor(2 * tick)
		if !k.Untimeout(k.Timeout(note("e"), 5)) {
			t.Error("a fresh handle to a reused record did not cancel it")
		}
		p.SleepFor(8 * tick)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(log); got != 3 || log[0] != "a" || log[1] != "c" || log[2] != "d" {
		t.Fatalf("fired %v, want [a c d]", log)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitWriteLendsUntilDone: a blocked write's bytes are read when
// they are admitted, not copied when they are queued — the caller sleeps
// with its buffer on loan while a callout plays the endpoint — and the
// completed await hands its state back to the process.
func TestAwaitWriteLendsUntilDone(t *testing.T) {
	k := testKernel()
	q := newWriteQueue(4)
	var completions []error
	sinkWrite := func(data []byte, blk *sim.Block, done func(error)) {
		q.Queue(data, blk, func(err error) { completions = append(completions, err); done(err) })
	}
	k.Spawn("writer", func(p *Proc) {
		q.Push([]byte("...")) // one byte of room: the write below has to wait
		var got string
		var consume func()
		consume = func() { // the endpoint consumes everything admitted, then admits
			got += string(queued(&q.FIFO))
			q.Drop(q.Len())
			q.Admit()
			if q.Len() > 0 || q.Queued() > 0 {
				k.Timeout(consume, 1)
			}
		}
		k.Timeout(consume, 1)
		d := []byte("ijklm")
		k.Timeout(func() { d[4] = 'M' }, 1) // still the writer's bytes: what is admitted later is read then
		if n, err := AwaitWrite(p.Ctx(), d, sinkWrite); n != 5 || err != nil {
			t.Errorf("blocking AwaitWrite = (%d, %v), want (5, nil)", n, err)
		}
		p.SleepFor(3 * k.cfg.TickDuration())
		if got != "...ijklM" {
			t.Errorf("the endpoint read %q, want %q", got, "...ijklM")
		}
		if len(completions) != 1 || completions[0] != nil {
			t.Errorf("completions %v, want one nil", completions)
		}
		if p.aw == nil {
			t.Error("the completed await did not return its state to the process")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitWriteSleepIsNotInterruptible: the write sleeps at PSOCK, below
// PZERO, so the proc.sleep-signal site never sees it — armed on every
// occurrence, the fault leaves a blocked write to complete in full.
func TestAwaitWriteSleepIsNotInterruptible(t *testing.T) {
	k := testKernel()
	arm := k.Faults().Arm(FaultArm{Site: SiteSleepSignal, Every: 1, Match: MatchAny, Count: -1})
	q := newWriteQueue(2)
	k.Spawn("writer", func(p *Proc) {
		room := func() { q.Drop(q.Len()); q.Admit() }
		k.Timeout(room, 2) // admits two bytes
		k.Timeout(room, 3) // consumes them and admits the third
		b := []byte("abc")
		if n, err := AwaitWrite(p.Ctx(), b, q.Queue); n != 3 || err != nil {
			t.Errorf("AwaitWrite with proc.sleep-signal armed = (%d, %v), want (3, nil)", n, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if arm.Seen() != 0 {
		t.Fatalf("the write's sleep was offered to proc.sleep-signal %d times", arm.Seen())
	}
}

func TestAwaitWriteAllocatesNothing(t *testing.T) {
	k := New(DefaultConfig())
	q := WriteQueue{Cap: 8, FIFO: FIFO{Spares: k.Spares()}}
	allocs := -1.0
	room := func() { q.Drop(q.Len()); q.Admit() }
	b := make([]byte, 12) // more than fits: the caller sleeps on every write
	k.Spawn("writer", func(p *Proc) {
		write := func() {
			k.Timeout(room, 1)
			k.Timeout(room, 2)
			if n, err := AwaitWrite(p.Ctx(), b, q.Queue); n != len(b) || err != nil {
				t.Errorf("AwaitWrite = (%d, %v)", n, err)
			}
		}
		write()
		allocs = testing.AllocsPerRun(50, write)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a blocking write allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkCalloutArmFire is the benchmark's kernel.probe.callout_ns:
// one callout armed, dispatched by softclock and recycled.
func BenchmarkCalloutArmFire(b *testing.B) {
	b.ReportAllocs()
	k := New(DefaultConfig())
	fn := func() {}
	k.Spawn("timer", func(p *Proc) {
		armAndFire(p, fn)
		b.ResetTimer()
		for i := 0; i < b.N; i += 32 {
			armAndFire(p, fn)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
