package kernel

import (
	"testing"

	"kdp/internal/sim"
)

// pollable is a minimal PollOps file for exercising the poll layer: its
// readiness is a plain event mask tests flip from callouts.
type pollable struct {
	ready int
	q     PollQueue
}

func (f *pollable) Read(ctx Ctx, b []byte, off int64) (int, error)  { return 0, ErrOpNotSupp }
func (f *pollable) Write(ctx Ctx, b []byte, off int64) (int, error) { return 0, ErrOpNotSupp }
func (f *pollable) Close(ctx Ctx) error                             { return nil }

func (f *pollable) PollReady(events int) int {
	return f.ready & (events | PollErr | PollHup)
}
func (f *pollable) PollQueue() *PollQueue { return &f.q }

// mark sets event bits and notifies registered pollers, the way a real
// object's interrupt-level completion path would.
func (f *pollable) mark(events int) {
	f.ready |= events
	f.q.Notify(events)
}

func newPollRig() *Kernel {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	return New(cfg)
}

// runPoll runs fn as the only process and verifies no poller
// registration leaks once the machine is idle.
func runPoll(t *testing.T, k *Kernel, fn func(*Proc)) {
	t.Helper()
	k.Spawn("poller", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestPollZeroTimeoutScansOnce(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		fds := []PollFd{{FD: fd, Events: PollIn}}
		t0 := p.Now()
		n, err := p.Poll(fds, 0)
		if n != 0 || err != nil {
			t.Fatalf("unready zero-timeout poll: n=%d err=%v", n, err)
		}
		if p.Now().Sub(t0) > 10*sim.Millisecond {
			t.Fatalf("zero-timeout poll slept %v", p.Now().Sub(t0))
		}
		f.ready = PollIn
		n, err = p.Poll(fds, 0)
		if n != 1 || err != nil || fds[0].Revents != PollIn {
			t.Fatalf("ready zero-timeout poll: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
	})
}

func TestPollTimeoutExpires(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		fds := []PollFd{{FD: fd, Events: PollIn}}
		start := k.Ticks()
		n, err := p.Poll(fds, 7)
		if n != 0 || err != nil || fds[0].Revents != 0 {
			t.Fatalf("timed-out poll: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
		if waited := k.Ticks() - start; waited < 7 {
			t.Fatalf("poll returned after %d ticks, want >= 7", waited)
		}
	})
}

func TestPollWakeupOnNotify(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		k.Timeout(func() { f.mark(PollIn) }, 10)
		start := k.Ticks()
		fds := []PollFd{{FD: fd, Events: PollIn}}
		n, err := p.Poll(fds, -1)
		if n != 1 || err != nil || fds[0].Revents != PollIn {
			t.Fatalf("poll after notify: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
		if waited := k.Ticks() - start; waited < 10 {
			t.Fatalf("poller woke after %d ticks, want >= 10", waited)
		}
	})
}

func TestPollNvalForClosedDescriptor(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		_ = p.Close(fd)
		// An invalid descriptor is reported, not waited on, even with
		// an infinite timeout.
		fds := []PollFd{{FD: fd, Events: PollIn}}
		n, err := p.Poll(fds, -1)
		if n != 1 || err != nil || fds[0].Revents != PollNval {
			t.Fatalf("poll on closed fd: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
	})
}

func TestPollRegularFilesAlwaysReady(t *testing.T) {
	k := newPollRig()
	fsys := &memFS{files: map[string]*memFile{}}
	k.Mount("/m", fsys)
	runPoll(t, k, func(p *Proc) {
		fd, err := p.Open("/m/x", OCreat|ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		fds := []PollFd{{FD: fd, Events: PollIn | PollOut}}
		n, err := p.Poll(fds, -1)
		if n != 1 || err != nil || fds[0].Revents != PollIn|PollOut {
			t.Fatalf("poll on regular file: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
	})
}

// TestPollNotifyMaskTargetsWaiters drives two pollers waiting for
// different events on one object: a notification wakes only the
// waiters whose registered interest intersects it.
func TestPollNotifyMaskTargetsWaiters(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	var inWoke, outWoke int64 // ticks
	k.Spawn("reader", func(p *Proc) {
		fd := p.InstallFile(f, ORdOnly)
		fds := []PollFd{{FD: fd, Events: PollIn}}
		if n, err := p.Poll(fds, -1); n != 1 || err != nil || fds[0].Revents != PollIn {
			t.Errorf("reader poll: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
		inWoke = k.Ticks()
	})
	k.Spawn("writer", func(p *Proc) {
		fd := p.InstallFile(f, OWrOnly)
		fds := []PollFd{{FD: fd, Events: PollOut}}
		if n, err := p.Poll(fds, -1); n != 1 || err != nil || fds[0].Revents != PollOut {
			t.Errorf("writer poll: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
		}
		outWoke = k.Ticks()
	})
	k.Timeout(func() { f.mark(PollOut) }, 10)
	k.Timeout(func() { f.mark(PollIn) }, 30)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	// The writer must wake on the first notification, the reader only
	// on the second — a PollOut event through an interest-blind queue
	// would bounce the reader at tick 10 too.
	if outWoke < 10 || outWoke >= 30 {
		t.Fatalf("writer woke at tick %d, want within [10,30)", outWoke)
	}
	if inWoke < 30 {
		t.Fatalf("reader woke at tick %d, want >= 30", inWoke)
	}
}

// TestPollInterestMaskWidens polls one object twice in the same set
// with different events; the single shared registration must carry the
// union, so a notification for either bit wakes the poller.
func TestPollInterestMaskWidens(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		k.Timeout(func() { f.mark(PollOut) }, 10)
		fds := []PollFd{
			{FD: fd, Events: PollIn},
			{FD: fd, Events: PollOut},
		}
		n, err := p.Poll(fds, -1)
		if n != 1 || err != nil {
			t.Fatalf("widened poll: n=%d err=%v", n, err)
		}
		if fds[0].Revents != 0 || fds[1].Revents != PollOut {
			t.Fatalf("revents = %#x/%#x, want 0/PollOut", fds[0].Revents, fds[1].Revents)
		}
	})
}

func TestPollSignalInterrupts(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	k.Spawn("poller", func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		k.Timeout(func() { k.Post(p, SIGIO) }, 5)
		fds := []PollFd{{FD: fd, Events: PollIn}}
		if n, err := p.Poll(fds, -1); err != ErrIntr {
			t.Errorf("poll under signal: n=%d err=%v, want ErrIntr", n, err)
		}
		p.DeliverSignals()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestPollErrReportedUnrequested: error/hangup conditions surface even
// when the poller asked only for data events.
func TestPollErrReportedUnrequested(t *testing.T) {
	k := newPollRig()
	f := &pollable{}
	runPoll(t, k, func(p *Proc) {
		fd := p.InstallFile(f, ORdWr)
		k.Timeout(func() { f.mark(PollErr | PollHup) }, 5)
		fds := []PollFd{{FD: fd, Events: PollIn}}
		n, err := p.Poll(fds, -1)
		if n != 1 || err != nil {
			t.Fatalf("poll: n=%d err=%v", n, err)
		}
		if fds[0].Revents != PollErr|PollHup {
			t.Fatalf("revents = %#x, want PollErr|PollHup", fds[0].Revents)
		}
	})
}
