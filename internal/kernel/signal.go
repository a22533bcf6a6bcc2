package kernel

import (
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// Signal identifies a UNIX-style signal. Only the signals the paper's
// interface needs are modelled.
type Signal int

// Supported signals.
const (
	SIGIO   Signal = 1 // asynchronous I/O completion (splice with FASYNC)
	SIGALRM Signal = 2 // interval timer expiry
	numSig         = 3
)

func (s Signal) String() string {
	switch s {
	case SIGIO:
		return "SIGIO"
	case SIGALRM:
		return "SIGALRM"
	default:
		return "SIG?"
	}
}

// SetSignalHandler installs fn as the handler for sig; nil restores the
// default (ignore). Handlers run in process context when the process is
// about to return to user mode or is woken from an interruptible sleep.
func (p *Proc) SetSignalHandler(sig Signal, fn func(*Proc, Signal)) {
	if sig <= 0 || sig >= numSig {
		panic("kernel: bad signal")
	}
	p.sigHandler[sig] = fn
}

// SignalPending reports whether sig is pending delivery.
func (p *Proc) SignalPending(sig Signal) bool {
	return p.sigPending&(1<<uint(sig)) != 0
}

// Post delivers sig to p: it is marked pending, and if p is blocked in
// an interruptible sleep the sleep is broken with ErrIntr. Mirrors
// psignal(). Safe to call from interrupt context.
func (k *Kernel) Post(p *Proc, sig Signal) {
	if p.state == ProcExited {
		return
	}
	p.sigPending |= 1 << uint(sig)
	k.TraceEmit(trace.KindSignalPost, p.pid, int64(sig), 0, sig.String())
	if p.state == ProcSleeping && p.sleepSig {
		k.unsleep(p)
		p.wakeErr = ErrIntr
		k.makeRunnable(p, p.sleepPri)
	}
}

// deliverSignals runs pending handlers in process context. Called by
// the scheduler when p transitions to user mode.
func (k *Kernel) deliverSignals(p *Proc) {
	for sig := Signal(1); sig < numSig; sig++ {
		bit := uint32(1) << uint(sig)
		if p.sigPending&bit == 0 {
			continue
		}
		p.sigPending &^= bit
		k.TraceEmit(trace.KindSignalDeliver, p.pid, int64(sig), 0, sig.String())
		if h := p.sigHandler[sig]; h != nil {
			h(p, sig)
		}
	}
}

// DeliverSignals runs any pending signal handlers in process context,
// as happens on return to user mode. Harness code that loops around
// interruptible sleeps calls this to consume signals (otherwise a
// pending signal would break every subsequent interruptible sleep).
func (p *Proc) DeliverSignals() {
	p.assertRunning("DeliverSignals")
	p.k.deliverSignals(p)
}

// Pause blocks the process until a signal is delivered, like pause(2).
// Pending handlers run before Pause returns.
func (p *Proc) Pause() {
	defer p.SyscallExit(p.SyscallEnter("pause"))
	for p.sigPending == 0 {
		_ = p.Sleep(&p.sigPending, PSLEP) // interruptible: broken by Post
	}
	p.k.deliverSignals(p)
}

// itimer is a per-process interval timer (ITIMER_REAL) delivering
// SIGALRM through the callout list.
type itimer struct {
	p        *Proc
	interval int // ticks; 0 means one-shot
	callout  Callout
	stopped  bool
}

func (t *itimer) fire(k *Kernel) {
	if t.stopped {
		return
	}
	k.Post(t.p, SIGALRM)
	if t.interval > 0 {
		t.callout = k.Timeout(func() { t.fire(k) }, t.interval)
	}
}

func (t *itimer) stop(k *Kernel) {
	t.stopped = true
	k.Untimeout(t.callout)
}

// SetITimer arms (or with zero durations, disarms) the process's real
// interval timer: the first SIGALRM after value, then one every
// interval. Granularity is the clock tick, as on the real system.
func (p *Proc) SetITimer(value, interval sim.Duration) {
	defer p.SyscallExit(p.SyscallEnter("setitimer"))
	k := p.k
	if p.itimer != nil {
		p.itimer.stop(k)
		p.itimer = nil
	}
	if value <= 0 && interval <= 0 {
		return
	}
	t := &itimer{p: p, interval: k.DurationToTicks(interval)}
	first := k.DurationToTicks(value)
	if first <= 0 {
		first = 1
	}
	t.callout = k.Timeout(func() { t.fire(k) }, first)
	p.itimer = t
}
