package kernel

import (
	"testing"

	"kdp/internal/sim"
)

func testKernel() *Kernel {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	return New(cfg)
}

func TestSingleProcCompute(t *testing.T) {
	k := testKernel()
	p := k.Spawn("worker", func(p *Proc) {
		p.Compute(50 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcExited {
		t.Fatalf("proc state = %v", p.State())
	}
	if p.UserTime() != 50*sim.Millisecond {
		t.Fatalf("utime = %v, want 50ms", p.UserTime())
	}
	if got := k.Now(); got < sim.Time(50*sim.Millisecond) {
		t.Fatalf("clock = %v, want >= 50ms", got)
	}
}

func TestTwoProcsRoundRobinFairness(t *testing.T) {
	k := testKernel()
	a := k.Spawn("a", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Compute(100 * sim.Millisecond)
		}
	})
	b := k.Spawn("b", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Compute(100 * sim.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.UserTime() != 2*sim.Second || b.UserTime() != 2*sim.Second {
		t.Fatalf("utimes %v/%v, want 2s each", a.UserTime(), b.UserTime())
	}
	// With round-robin sharing, total elapsed must be at least the sum
	// of both computations.
	if k.Now() < sim.Time(4*sim.Second) {
		t.Fatalf("elapsed %v < 4s", k.Now())
	}
	// Each should have been preempted several times: 4s of contention
	// with a 100ms quantum.
	_, aInv := a.ContextSwitches()
	_, bInv := b.ContextSwitches()
	if aInv+bInv < 10 {
		t.Fatalf("too few involuntary switches: a=%d b=%d", aInv, bInv)
	}
}

func TestRoundRobinInterleavesFinely(t *testing.T) {
	// Two CPU-bound procs must alternate on quantum boundaries, not run
	// to completion serially: proc b must finish well before 2x its own
	// compute time would suggest if scheduling were FIFO.
	k := testKernel()
	var aDone, bDone sim.Time
	k.Spawn("a", func(p *Proc) {
		p.Compute(1 * sim.Second)
		aDone = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		p.Compute(1 * sim.Second)
		bDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	gap := aDone.Sub(bDone)
	if gap < 0 {
		gap = -gap
	}
	// Interleaved completion: both end within ~one quantum of each
	// other, around t=2s.
	if gap > sim.Duration(300*sim.Millisecond) {
		t.Fatalf("completions not interleaved: a=%v b=%v", aDone, bDone)
	}
}

func TestSleepWakeup(t *testing.T) {
	k := testKernel()
	ch := new(int)
	var wokeAt sim.Time
	k.Spawn("sleeper", func(p *Proc) {
		if err := p.Sleep(ch, PWAIT); err != nil {
			t.Errorf("sleep: %v", err)
		}
		wokeAt = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Compute(30 * sim.Millisecond)
		k.Wakeup(ch)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < sim.Time(30*sim.Millisecond) {
		t.Fatalf("woke at %v, want >= 30ms", wokeAt)
	}
}

func TestWakeupPreemptsLowerPriority(t *testing.T) {
	// An I/O-priority wakeup must preempt a user-priority computer
	// promptly (well before the computer finishes its long burst).
	k := testKernel()
	ch := new(int)
	var wokeAt sim.Time
	k.Spawn("io", func(p *Proc) {
		_ = p.Sleep(ch, PRIBIO)
		wokeAt = p.Now()
	})
	k.Spawn("cpu", func(p *Proc) {
		p.Compute(5 * sim.Second)
	})
	k.Engine().Schedule(100*sim.Millisecond, "intr", func() {
		k.Wakeup(ch)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt > sim.Time(200*sim.Millisecond) {
		t.Fatalf("I/O proc ran at %v; wakeup did not preempt", wokeAt)
	}
}

func TestSleepForUsesCallout(t *testing.T) {
	k := testKernel()
	var woke sim.Time
	k.Spawn("napper", func(p *Proc) {
		p.SleepFor(55 * sim.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Tick granularity: 55ms rounds up to 6 ticks = 60ms.
	if woke < sim.Time(55*sim.Millisecond) || woke > sim.Time(80*sim.Millisecond) {
		t.Fatalf("woke at %v, want ~60ms", woke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := testKernel()
	k.Spawn("stuck", func(p *Proc) {
		_ = p.Sleep(new(int), PWAIT) // nothing will ever wake this
	})
	err := k.Run()
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestWatchdog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 100 * sim.Millisecond
	k := New(cfg)
	k.Spawn("long", func(p *Proc) {
		p.Compute(10 * sim.Second)
	})
	if err := k.Run(); err != ErrWatchdog {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

func TestStealCPUDelaysComputation(t *testing.T) {
	k := testKernel()
	var done sim.Time
	k.Spawn("cpu", func(p *Proc) {
		p.Compute(100 * sim.Millisecond)
		done = p.Now()
	})
	// Interrupt at t=10ms stealing 20ms.
	k.Engine().Schedule(10*sim.Millisecond, "intr", func() {
		k.Interrupt(func() { k.StealCPU(20 * sim.Millisecond) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(120 * sim.Millisecond)
	if done < want {
		t.Fatalf("compute finished at %v, want >= %v (stolen time must delay it)", done, want)
	}
	st := k.Stats()
	if st.Interrupt < 20*sim.Millisecond {
		t.Fatalf("interrupt time = %v, want >= 20ms", st.Interrupt)
	}
	if st.Interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", st.Interrupts)
	}
}

func TestKernelModeNotPreempted(t *testing.T) {
	// A long kernel-mode burst must not be round-robin preempted.
	k := testKernel()
	var kernDone sim.Time
	k.Spawn("kern", func(p *Proc) {
		p.UseK(500 * sim.Millisecond)
		kernDone = p.Now()
	})
	k.Spawn("user", func(p *Proc) {
		p.Compute(500 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// kern was spawned first and is non-preemptible: it must complete
	// its burst in one piece, i.e. at ~500ms.
	if kernDone > sim.Time(510*sim.Millisecond) {
		t.Fatalf("kernel-mode burst finished at %v; was preempted", kernDone)
	}
}

func TestCalloutDeltaList(t *testing.T) {
	k := testKernel()
	var fired []int
	k.Spawn("idle", func(p *Proc) {
		p.SleepFor(200 * sim.Millisecond)
	})
	k.Timeout(func() { fired = append(fired, 3) }, 3)
	k.Timeout(func() { fired = append(fired, 1) }, 1)
	k.Timeout(func() { fired = append(fired, 2) }, 2)
	k.Timeout(func() { fired = append(fired, 12) }, 1) // same tick as "1"
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 12, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestCalloutTiming(t *testing.T) {
	k := testKernel()
	tick := k.Config().TickDuration()
	var at sim.Time
	k.Spawn("idle", func(p *Proc) { p.SleepFor(20 * tick) })
	k.Timeout(func() { at = k.Now() }, 5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Queued at t=0; fires on the 5th hardclock tick (plus the
	// dispatch cost stolen before the handler body runs).
	lo, hi := sim.Time(5*tick), sim.Time(5*tick+sim.Millisecond)
	if at < lo || at > hi {
		t.Fatalf("callout fired at %v, want ~%v", at, lo)
	}
}

func TestCalloutZeroTicksFiresNextSoftclock(t *testing.T) {
	k := testKernel()
	tick := k.Config().TickDuration()
	var at sim.Time
	k.Spawn("idle", func(p *Proc) { p.SleepFor(10 * tick) })
	k.Timeout(func() { at = k.Now() }, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at < sim.Time(tick) || at > sim.Time(tick+sim.Millisecond) {
		t.Fatalf("head callout fired at %v, want next tick %v", at, sim.Time(tick))
	}
}

func TestUntimeout(t *testing.T) {
	k := testKernel()
	fired := false
	k.Spawn("idle", func(p *Proc) { p.SleepFor(100 * sim.Millisecond) })
	c := k.Timeout(func() { fired = true }, 2)
	if k.PendingCallouts() != 1 {
		t.Fatalf("pending = %d", k.PendingCallouts())
	}
	if !k.Untimeout(c) {
		t.Fatal("Untimeout failed")
	}
	if k.Untimeout(c) {
		t.Fatal("double Untimeout succeeded")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled callout fired")
	}
}

func TestUntimeoutMiddleEntryPreservesDeltas(t *testing.T) {
	k := testKernel()
	var fired []int
	k.Spawn("idle", func(p *Proc) { p.SleepFor(200 * sim.Millisecond) })
	k.Timeout(func() { fired = append(fired, 1) }, 1)
	c := k.Timeout(func() { fired = append(fired, 2) }, 3)
	k.Timeout(func() { fired = append(fired, 3) }, 5)
	k.Untimeout(c)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
}

func TestSignalInterruptsSleep(t *testing.T) {
	k := testKernel()
	ch := new(int)
	var err error
	p := k.Spawn("sleeper", func(p *Proc) {
		err = p.Sleep(ch, PWAIT) // PWAIT > PZERO: interruptible
	})
	k.Engine().Schedule(10*sim.Millisecond, "sig", func() {
		k.Post(p, SIGIO)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrIntr {
		t.Fatalf("sleep returned %v, want ErrIntr", err)
	}
}

func TestSignalDoesNotInterruptDiskSleep(t *testing.T) {
	k := testKernel()
	ch := new(int)
	var serr error
	p := k.Spawn("sleeper", func(p *Proc) {
		serr = p.Sleep(ch, PRIBIO) // below PZERO: uninterruptible
	})
	k.Engine().Schedule(10*sim.Millisecond, "sig", func() { k.Post(p, SIGIO) })
	k.Engine().Schedule(30*sim.Millisecond, "wake", func() { k.Wakeup(ch) })
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if serr != nil {
		t.Fatalf("uninterruptible sleep returned %v", serr)
	}
}

func TestPauseAndHandler(t *testing.T) {
	k := testKernel()
	got := Signal(0)
	p := k.Spawn("pauser", func(p *Proc) {
		p.SetSignalHandler(SIGIO, func(p *Proc, s Signal) { got = s })
		p.Pause()
	})
	k.Engine().Schedule(20*sim.Millisecond, "sig", func() { k.Post(p, SIGIO) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != SIGIO {
		t.Fatalf("handler got %v, want SIGIO", got)
	}
}

func TestITimerPacing(t *testing.T) {
	k := testKernel()
	var times []sim.Time
	k.Spawn("paced", func(p *Proc) {
		p.SetITimer(30*sim.Millisecond, 30*sim.Millisecond)
		for i := 0; i < 5; i++ {
			p.Pause()
			times = append(times, p.Now())
		}
		p.SetITimer(0, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("got %d alarms, want 5", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < 25*sim.Millisecond || gap > 45*sim.Millisecond {
			t.Fatalf("alarm gap %d = %v, want ~30ms", i, gap)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := testKernel()
	k.Spawn("bad", func(p *Proc) {
		panic("boom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in proc body did not propagate to Run")
		}
	}()
	_ = k.Run()
}

func TestHoldKeepsKernelAlive(t *testing.T) {
	k := testKernel()
	k.Hold()
	done := false
	k.Spawn("quick", func(p *Proc) {
		p.Compute(sim.Millisecond)
	})
	// Kernel-side work completes at 50ms and releases the hold.
	k.Engine().Schedule(50*sim.Millisecond, "work", func() {
		done = true
		k.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("kernel exited before held work completed")
	}
	if k.Now() < sim.Time(50*sim.Millisecond) {
		t.Fatalf("clock = %v, want >= 50ms", k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, sim.Duration, int64) {
		k := testKernel()
		ch := new(int)
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Compute(17 * sim.Millisecond)
				k.Wakeup(ch)
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 5; i++ {
				_ = p.Sleep(ch, PWAIT)
				p.Compute(3 * sim.Millisecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st := k.Stats()
		return st.Now, st.Idle, st.Switches
	}
	t1, i1, s1 := run()
	t2, i2, s2 := run()
	if t1 != t2 || i1 != i2 || s1 != s2 {
		t.Fatalf("runs diverged: (%v,%v,%d) vs (%v,%v,%d)", t1, i1, s1, t2, i2, s2)
	}
}

func TestIdleAccounting(t *testing.T) {
	k := testKernel()
	k.Spawn("napper", func(p *Proc) {
		p.SleepFor(100 * sim.Millisecond)
		p.Compute(10 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Idle < 90*sim.Millisecond {
		t.Fatalf("idle = %v, want ~100ms", st.Idle)
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	k := testKernel()
	for i := 0; i < 2; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Compute(150 * sim.Millisecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Switches < 5 {
		t.Fatalf("switches = %d, want several", st.Switches)
	}
	if st.Switching != sim.Duration(st.Switches)*k.Config().ContextSwitchCost {
		t.Fatalf("switch time %v inconsistent with %d switches", st.Switching, st.Switches)
	}
}
