package kernel

import (
	"errors"
	"testing"

	"kdp/internal/sim"
	"kdp/internal/trace"
)

// These tests pin the in-place CPU charge: Proc.Use serves the charge
// on the caller's own stack by the steps Run would have taken (a
// boundary, serveUse, a boundary) and gives the coroutine up only when
// the process has lost the CPU or the run is over. Kernel.resumes
// counts the switches into a process, so "never left its stack" is a
// number.

func TestLoneProcChargesInPlace(t *testing.T) {
	k := testKernel()
	fired := 0
	var rearm func()
	rearm = func() {
		if fired++; fired < 50 {
			k.Timeout(rearm, 3)
		}
	}
	k.Timeout(rearm, 1)
	p := k.Spawn("lone", func(p *Proc) {
		for i := 0; i < 5000; i++ {
			p.Compute(300 * sim.Microsecond)
			p.UseK(100 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.UserTime() != 1500*sim.Millisecond || p.SysTime() != 500*sim.Millisecond {
		t.Fatalf("utime/stime = %v/%v, want 1.5s/500ms", p.UserTime(), p.SysTime())
	}
	if k.Ticks() < 200 || fired != 50 {
		t.Fatalf("ticks = %d, callouts fired = %d: the charges did not span the clock", k.Ticks(), fired)
	}
	if k.resumes != 1 {
		t.Fatalf("resumes = %d, want 1: a lone process gave its stack up to be charged", k.resumes)
	}
}

func TestUseAllocatesNothing(t *testing.T) {
	k := testKernel()
	var allocs float64
	k.Spawn("lone", func(p *Proc) {
		allocs = testing.AllocsPerRun(20000, func() { p.UseK(sim.Microsecond) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("UseK allocates %v times per call", allocs)
	}
}

func TestComputeBoundPairSwitchesOnlyWhenPreempted(t *testing.T) {
	k := testKernel()
	var done [2]sim.Time
	body := func(i int) func(*Proc) {
		return func(p *Proc) {
			for j := 0; j < 4000; j++ {
				p.Compute(500 * sim.Microsecond)
			}
			done[i] = p.Now()
		}
	}
	a, b := k.Spawn("a", body(0)), k.Spawn("b", body(1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	budget := 0
	for _, p := range []*Proc{a, b} {
		v, inv := p.ContextSwitches()
		if p.UserTime() != 2*sim.Second || inv < 15 {
			t.Fatalf("%s: utime %v, %d involuntary switches; want 2s shared in 100ms quanta", p.Name(), p.UserTime(), inv)
		}
		budget += 1 + int(v+inv)
	}
	if k.resumes > budget {
		t.Fatalf("resumes = %d, want <= %d (one per start, sleep and preemption)", k.resumes, budget)
	}
	if gap := done[1].Sub(done[0]); gap < 0 || gap > 150*sim.Millisecond {
		t.Fatalf("a finished at %v, b at %v: not a round-robin share", done[0], done[1])
	}
}

func TestCalloutPanicDuringUseSurfacesFromRun(t *testing.T) {
	k := testKernel()
	hooked, returned := false, false
	k.Timeout(func() { panic("callout boom") }, 2)
	p := k.Spawn("victim", func(p *Proc) {
		p.AtExit(func(*Proc) { hooked = true })
		p.Compute(50 * sim.Millisecond)
		returned = true
	})
	defer func() {
		if r := recover(); r != "callout boom" {
			t.Fatalf("Run panicked with %v, want the callout's own value", r)
		}
		// The panic unwound the stack it fired on, the process's, and
		// was re-raised by reapProc: as for a panic in the body itself,
		// exit hooks are skipped.
		if p.panicVal != "callout boom" || p.State() != ProcExited {
			t.Fatalf("panicVal = %v, state %v", p.panicVal, p.State())
		}
		if hooked || returned {
			t.Fatalf("atExit ran: %v, Compute returned: %v", hooked, returned)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned")
}

// TestAbortFromProbeDuringUse aborts from the n-th probe call. With a
// lone process looping on Compute, Run probes once before the process
// starts and then twice per charge, so an even n is the boundary before
// charge n/2 and an odd one the boundary after charge (n-1)/2. Either
// way Run returns at that boundary without taking it again: the probe
// ran n times, as it did when every charge parked.
func TestAbortFromProbeDuringUse(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		at        int
		completed int
		utime     sim.Duration
	}{
		{at: 6, completed: 2, utime: 2 * sim.Millisecond}, // before charge 3
		{at: 7, completed: 2, utime: 3 * sim.Millisecond}, // after charge 3
	} {
		k := testKernel()
		probes, completed := 0, 0
		k.SetProbe(func() {
			if probes++; probes == tc.at {
				k.Abort(boom)
			}
		})
		p := k.Spawn("lone", func(p *Proc) {
			for {
				p.Compute(sim.Millisecond)
				completed++
			}
		})
		if err := k.Run(); err != boom {
			t.Fatalf("abort at probe %d: Run = %v, want %v", tc.at, err, boom)
		}
		if probes != tc.at || completed != tc.completed || p.UserTime() != tc.utime || k.resumes != 1 {
			t.Fatalf("abort at probe %d: %d probes, %d charges returned, utime %v, %d resumes; want %d, %d, %v, 1",
				tc.at, probes, completed, p.UserTime(), k.resumes, tc.at, tc.completed, tc.utime)
		}
	}
}

func TestWatchdogStopsComputeLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = sim.Second
	k := New(cfg)
	n := 0
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Compute(10 * sim.Millisecond)
			n++
		}
	})
	if err := k.Run(); err != ErrWatchdog {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	// Charge 101 ends past the limit; the boundary after it stops the run.
	if n != 100 || k.resumes != 1 {
		t.Fatalf("%d charges returned and %d resumes, want 100 and 1", n, k.resumes)
	}
}

func TestPreemptedChargeResumesWithRemainderOnce(t *testing.T) {
	k := testKernel()
	col := &trace.Collector{}
	k.StartTrace(col)
	body := func(p *Proc) { p.Compute(250 * sim.Millisecond) }
	a, b := k.Spawn("a", body), k.Spawn("b", body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	midCharge := 0
	for _, ev := range col.Events {
		if ev.Kind == trace.KindSchedPreempt && ev.Arg1 > 0 {
			midCharge++
		}
	}
	if midCharge < 4 {
		t.Fatalf("%d preemptions with a remainder outstanding, want one per 100ms quantum", midCharge)
	}
	if a.UserTime() != 250*sim.Millisecond || b.UserTime() != 250*sim.Millisecond {
		t.Fatalf("utimes %v/%v, want 250ms each", a.UserTime(), b.UserTime())
	}
	busy := 500*sim.Millisecond + k.Stats().Switching + k.Stats().Interrupt
	if sim.Duration(k.Now()) != busy {
		t.Fatalf("clock %v, want %v: every charged nanosecond exactly once", k.Now(), busy)
	}
}

// watchGen installs a probe logging the scheduler catalog's generation
// at every boundary of k. The returned during runs charge in process
// context and reports whether the generation moved between the
// boundaries before and after it.
func watchGen(k *Kernel) (during func(charge func()) bool) {
	var seen []uint32
	k.SetProbe(func() { seen = append(seen, k.gen.N()) })
	return func(charge func()) bool {
		n := len(seen)
		charge()
		return seen[len(seen)-1] != seen[n]
	}
}

// TestQuietChargeMovesNoGeneration: a charge during which nothing fires
// leaves the scheduler as it was, so the pass after it skips the
// scheduler catalog.
func TestQuietChargeMovesNoGeneration(t *testing.T) {
	k := testKernel()
	during := watchGen(k)
	k.Spawn("lone", func(p *Proc) {
		for _, kernelMode := range []bool{true, false} {
			if during(func() { p.Use(sim.Microsecond, kernelMode) }) {
				t.Errorf("charge (kernel mode %v) with nothing due moved the generation", kernelMode)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTickMovesGenerationWithCallouts: a clock tick moves the scheduler
// catalog's state only when callouts fire. Over an empty list it moves
// nothing, and over a callout not yet due it only lowers a positive
// delta, whose sign is all kern-callout-delta reads.
func TestTickMovesGenerationWithCallouts(t *testing.T) {
	k := testKernel()
	during := watchGen(k)
	tick := k.Config().TickDuration()
	k.Spawn("lone", func(p *Proc) {
		if during(func() { p.UseK(tick + tick/2) }) {
			t.Error("a charge spanning a tick over an empty callout list moved the generation")
		}
		k.Timeout(func() {}, 3)
		if during(func() { p.UseK(tick) }) {
			t.Error("a charge spanning a tick before the callout is due moved the generation")
		}
		if !during(func() { p.UseK(3 * tick) }) {
			t.Error("a charge spanning the tick the callout fires at left the generation")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkUse is what a trap charge costs the host: one UseK on a lone
// process, clock ticks included.
func BenchmarkUse(b *testing.B) {
	b.ReportAllocs()
	k := New(DefaultConfig())
	k.Spawn("lone", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.UseK(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepWakeup is one sleep/wakeup hand-off between two
// processes (the benchmark's kernel.probe.handoff_ns).
func BenchmarkSleepWakeup(b *testing.B) {
	b.ReportAllocs()
	k := New(DefaultConfig())
	turn := 0
	player := func(me int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn != me {
					_ = p.Sleep(&turn, PWAIT)
				}
				turn = 1 - me
				k.Wakeup(&turn)
			}
		}
	}
	k.Spawn("ping", player(0))
	k.Spawn("pong", player(1))
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSyscallLseek is the cheapest system call: trap charge,
// descriptor lookup, two trace points.
func BenchmarkSyscallLseek(b *testing.B) {
	b.ReportAllocs()
	k, _ := newFDRig()
	k.Config().MaxRunTime = 0
	k.Spawn("t", func(p *Proc) {
		fd, err := p.Open("/m/x", OCreat|ORdWr)
		if err != nil {
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = p.Lseek(fd, 0, SeekSet)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
