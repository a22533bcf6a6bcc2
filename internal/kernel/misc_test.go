package kernel

import (
	"errors"
	"testing"

	"kdp/internal/sim"
	"kdp/internal/trace"
)

func TestProcStateString(t *testing.T) {
	for _, tc := range []struct {
		s    ProcState
		want string
	}{
		{ProcEmbryo, "embryo"},
		{ProcRunnable, "runnable"},
		{ProcRunning, "running"},
		{ProcSleeping, "sleeping"},
		{ProcExited, "exited"},
		{ProcState(99), "ProcState(99)"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.s), got, tc.want)
		}
	}
	if ErrIntr.Error() != "interrupted system call" {
		t.Errorf("ErrIntr.Error() = %q", ErrIntr.Error())
	}
	if SIGIO.String() != "SIGIO" || SIGALRM.String() != "SIGALRM" || Signal(9).String() != "SIG?" {
		t.Errorf("signal names wrong: %v %v %v", SIGIO, SIGALRM, Signal(9))
	}
}

func TestProcAccessorsAndYield(t *testing.T) {
	k, _ := newFDRig()
	var order []string
	mk := func(tag string) func(*Proc) {
		return func(p *Proc) {
			if p.Kernel() != k {
				t.Errorf("proc %s: Kernel() mismatch", tag)
			}
			if p.Name() != tag {
				t.Errorf("proc %s: Name() = %q", tag, p.Name())
			}
			if p.Pid() <= 0 {
				t.Errorf("proc %s: Pid() = %d", tag, p.Pid())
			}
			order = append(order, tag)
			p.Yield()
			order = append(order, tag)
			if p.Syscalls() != 0 {
				t.Errorf("proc %s: Syscalls() = %d before any syscall", tag, p.Syscalls())
			}
			if _, err := p.Open("/m/"+tag, OCreat|ORdWr); err != nil {
				t.Errorf("proc %s: open: %v", tag, err)
			}
			if p.Syscalls() != 1 {
				t.Errorf("proc %s: Syscalls() = %d after open", tag, p.Syscalls())
			}
		}
	}
	k.Spawn("a", mk("a"))
	k.Spawn("b", mk("b"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Yield sends each process to the tail of the run queue, so the
	// two bodies interleave around the yield point.
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelRandAndTraceLifecycle(t *testing.T) {
	k, _ := newFDRig()
	if k.Rand() == nil {
		t.Fatal("Rand() = nil")
	}
	if k.Tracer() != nil {
		t.Fatal("fresh kernel should have no tracer")
	}
	col := &trace.Collector{}
	tr := k.StartTrace(col)
	if k.Tracer() != tr {
		t.Fatal("StartTrace did not install the tracer")
	}
	k.TraceEmit(trace.KindServerReady, 1, 2, 3, "x")
	if len(col.Events) != 1 || col.Events[0].Kind != trace.KindServerReady {
		t.Fatalf("TraceEmit recorded %v", col.Events)
	}
	k.StopTrace()
	if k.Tracer() != nil {
		t.Fatal("StopTrace left the tracer installed")
	}
	k.TraceEmit(trace.KindServerReady, 1, 2, 3, "x")
	if len(col.Events) != 1 {
		t.Fatal("TraceEmit recorded an event with no tracer")
	}
}

func TestInvariantsCleanAndAbort(t *testing.T) {
	k, _ := newFDRig()
	probed := 0
	k.SetProbe(func() { probed++ })
	k.Spawn("t", func(p *Proc) {
		if err := k.CheckInvariants(); err != nil {
			t.Errorf("clean kernel: %v", err)
		}
		p.SleepFor(10 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if probed == 0 {
		t.Error("probe never invoked")
	}
	if err := k.CheckDrained(); err != nil {
		t.Errorf("drained kernel: %v", err)
	}

	k2, _ := newFDRig()
	boom := errors.New("boom")
	k2.Spawn("t", func(p *Proc) {
		k2.Abort(boom)
		k2.Abort(errors.New("second")) // first abort wins
		p.Yield()
		t.Error("process ran past abort")
	})
	if err := k2.Run(); err != boom {
		t.Fatalf("Run after Abort = %v, want %v", err, boom)
	}
}

func TestFDescAccessorsAndRelease(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		mf := &memFile{data: []byte("abc")}
		fd := p.InstallFile(mf, ORdWr|OAppend)
		f, err := p.FD(fd)
		if err != nil {
			t.Fatal(err)
		}
		if f.Ops() != FileOps(mf) {
			t.Error("Ops() did not return the installed object")
		}
		if f.Flags() != ORdWr|OAppend {
			t.Errorf("Flags() = %#x", f.Flags())
		}
		if f.Offset() != 0 {
			t.Errorf("Offset() = %d", f.Offset())
		}
		f.Advance(2)
		if f.Offset() != 2 {
			t.Errorf("Offset() after Advance(2) = %d", f.Offset())
		}
		ops, err := p.ReleaseFD(fd)
		if err != nil || ops != FileOps(mf) {
			t.Fatalf("ReleaseFD = %v, %v", ops, err)
		}
		if mf.closed {
			t.Error("ReleaseFD closed the object")
		}
		if _, err := p.FD(fd); err != ErrBadFD {
			t.Errorf("released fd still valid: %v", err)
		}
		if _, err := p.ReleaseFD(fd); err != ErrBadFD {
			t.Errorf("double release: %v", err)
		}
	})
}

func TestRegisterDev(t *testing.T) {
	k, _ := newFDRig()
	dev := &memFile{}
	k.RegisterDev("/dev/null0", func(ctx Ctx) (FileOps, error) { return dev, nil })
	runFD(t, k, func(p *Proc) {
		fd, err := p.Open("/dev/null0", ORdWr)
		if err != nil {
			t.Fatalf("open dev: %v", err)
		}
		if _, err := p.Write(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
		_ = p.Close(fd)
	})
}

func TestBcopyCost(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BcopyCost(0) != 0 {
		t.Errorf("BcopyCost(0) = %v", cfg.BcopyCost(0))
	}
	if cfg.BcopyCost(8192) >= cfg.CopyCost(8192) {
		t.Error("in-kernel bcopy should be cheaper than a user/kernel copy")
	}
}

func TestPollGauges(t *testing.T) {
	k, _ := newFDRig()
	po := &pollable{}
	if po.q.Waiters() != 0 || k.PollRegistrations() != 0 {
		t.Fatal("fresh queue reports waiters")
	}
	done := false
	k.Spawn("poller", func(p *Proc) {
		fd := p.InstallFile(po, ORdOnly)
		if _, err := p.Poll([]PollFd{{FD: fd, Events: PollIn}}, -1); err != nil {
			t.Errorf("poll: %v", err)
		}
		done = true
	})
	k.Spawn("observer", func(p *Proc) {
		p.SleepFor(10 * sim.Millisecond)
		// The poller is parked now: exactly one live registration.
		if po.q.Waiters() != 1 {
			t.Errorf("Waiters() = %d while poller parked", po.q.Waiters())
		}
		if k.PollRegistrations() != 1 {
			t.Errorf("PollRegistrations() = %d while poller parked", k.PollRegistrations())
		}
		po.mark(PollIn)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("poller never woke")
	}
	if po.q.Waiters() != 0 || k.PollRegistrations() != 0 {
		t.Error("registrations leaked after wakeup")
	}
}

func TestSignalPending(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		if p.SignalPending(SIGALRM) {
			t.Error("SIGALRM pending before Post")
		}
		k.Post(p, SIGALRM)
		if !p.SignalPending(SIGALRM) {
			t.Error("SIGALRM not pending after Post")
		}
		p.DeliverSignals()
		if p.SignalPending(SIGALRM) {
			t.Error("SIGALRM still pending after delivery")
		}
	})
}

func TestExecutionContexts(t *testing.T) {
	k, _ := newFDRig()
	ic := k.IntrCtx()
	if ic.Kern() != k || ic.CanSleep() {
		t.Error("IntrCtx: wrong kernel or sleepable")
	}
	ic.Use(1 * sim.Microsecond) // steals from the (idle) CPU
	func() {
		defer func() {
			if recover() == nil {
				t.Error("IntrCtx.Sleep did not panic")
			}
		}()
		_ = ic.Sleep(nil, PZERO)
	}()
	runFD(t, k, func(p *Proc) {
		nc := p.NBCtx()
		if nc.Kern() != k || nc.CanSleep() {
			t.Error("NBCtx: wrong kernel or sleepable")
		}
		nc.Use(1 * sim.Microsecond)
		defer func() {
			if recover() == nil {
				t.Error("NBCtx.Sleep did not panic")
			}
		}()
		_ = nc.Sleep(nil, PZERO)
	})
}
