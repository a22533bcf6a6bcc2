package kernel

import (
	"fmt"

	"kdp/internal/sim"
)

// Scheduling priorities, straight out of 4.3BSD. Numerically lower is
// more urgent. Sleeps at priority below PZERO are uninterruptible by
// signals.
const (
	PSWP   = 0
	PINOD  = 10
	PRIBIO = 20
	PSOCK  = 24
	PZERO  = 25
	PWAIT  = 30
	PSLEP  = 40
	PUSER  = 50
)

// ProcState enumerates the lifecycle states of a simulated process.
type ProcState int

// Process states.
const (
	ProcEmbryo   ProcState = iota // created, never run
	ProcRunnable                  // on the run queue
	ProcRunning                   // currently owns the CPU
	ProcSleeping                  // blocked on a wait channel
	ProcExited                    // terminated
)

func (s ProcState) String() string {
	switch s {
	case ProcEmbryo:
		return "embryo"
	case ProcRunnable:
		return "runnable"
	case ProcRunning:
		return "running"
	case ProcSleeping:
		return "sleeping"
	case ProcExited:
		return "exited"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// reqKind identifies why a process parked.
type reqKind int

const (
	reqNone  reqKind = iota
	reqUse           // charge CPU time (possibly preemptible)
	reqSleep         // block on wchan
	reqYield         // voluntarily give up the CPU
	reqExit          // terminate
)

// ErrIntr is returned by interruptible sleeps broken by a signal, in
// the spirit of EINTR.
const ErrIntr = errorString("interrupted system call")

type errorString string

func (e errorString) Error() string { return string(e) }

// Proc is a simulated process. Its body runs in a coroutine, and only
// one flow of control (either the kernel's Run loop or exactly one
// process body) ever executes: the body charges CPU time in place (Use)
// and parks where the process must block, yield, exit or is preempted,
// and the kernel decides when it resumes. This makes the simulation
// deterministic while letting process code read like a normal program.
// A process Run abandons (deadlock, watchdog, Abort) stays parked for
// the life of the program.
type Proc struct {
	k    *Kernel
	pid  int
	name string

	state     ProcState
	pri       int   // current sleep/run priority
	basePri   int   // priority when computing in user mode
	wchan     any   // sleep channel when state == ProcSleeping
	sleepNext *Proc // next sleeper on the same wchan
	wakeErr   error
	sleepSig  bool // sleeping interruptibly

	// coroutine switch: Run calls next to resume the body, the body
	// calls yield to park with req saying why
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	req   reqKind

	// pending CPU-use request
	useRem    sim.Duration
	useKernel bool

	// pending sleep request
	sleepPri int

	wakeSelf func() // SleepFor's callout handler, made by the first call

	aw *awaiter // spare AwaitWrite state, nil while a write that outlived its await holds it

	// signals
	sigPending uint32
	sigHandler [numSig]func(*Proc, Signal)
	itimer     *itimer

	// file descriptors
	fds []*FDesc

	// exit hooks (address-space teardown), run LIFO in process
	// context before descriptor teardown
	atExit []func(*Proc)

	// accounting
	utime sim.Duration // user-mode CPU consumed
	stime sim.Duration // kernel-mode CPU consumed
	nsys  int64        // syscall count
	nvcsw int64        // voluntary context switches (blocked)
	nicsw int64        // involuntary context switches (preempted)

	body     func(*Proc)
	panicVal any // panic recovered from the body, re-raised by the kernel

	ckRunq  uint64 // CheckInvariants pass that last saw this proc on the run queue
	ckSleep uint64 // ... and on the sleep queue its wchan names
}

// Pid returns the process id.
func (p *Proc) Pid() int { return p.pid }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.k.engine.Now() }

// UserTime returns the user-mode CPU time this process has consumed.
func (p *Proc) UserTime() sim.Duration { return p.utime }

// SysTime returns the kernel-mode CPU time this process has consumed.
func (p *Proc) SysTime() sim.Duration { return p.stime }

// Syscalls returns the number of system calls the process has made.
func (p *Proc) Syscalls() int64 { return p.nsys }

// ContextSwitches returns (voluntary, involuntary) context switch
// counts.
func (p *Proc) ContextSwitches() (voluntary, involuntary int64) {
	return p.nvcsw, p.nicsw
}

// park hands control back to the kernel loop and blocks until the
// kernel resumes this process.
func (p *Proc) park() { p.yield(struct{}{}) }

// Use charges d of CPU time to the process. Kernel-mode time is not
// preemptible by the scheduler (interrupts still steal time); user-mode
// time is subject to round-robin preemption and priority preemption on
// wakeup. Use returns only after the full duration has been charged.
//
// The charge is served here, on the process's own stack, by the steps
// Run would take had the process parked with it — a boundary, serveUse,
// a boundary — so clock ticks, callouts and device completions that
// come due meanwhile run on the interrupted process's stack. The
// process parks only when it has lost the CPU (serveUse preempted it:
// Run takes the boundary and picks the next process) or when a boundary
// ends the run (Run returns stopErr without taking the boundary again).
func (p *Proc) Use(d sim.Duration, kernelMode bool) {
	if d <= 0 {
		return
	}
	p.assertRunning("Use")
	p.useRem = d
	p.useKernel = kernelMode
	k := p.k
	if k.stopErr = k.boundary(); k.stopErr == nil {
		k.serveUse(p)
		if k.current == p {
			if k.stopErr = k.boundary(); k.stopErr == nil {
				return
			}
		}
	}
	p.req = reqUse
	p.park()
}

// UseK charges kernel-mode (non-preemptible) CPU time.
func (p *Proc) UseK(d sim.Duration) { p.Use(d, true) }

// Compute charges user-mode CPU time; this is how workloads model
// computation.
func (p *Proc) Compute(d sim.Duration) { p.Use(d, false) }

// Sleep blocks the process on wchan at the given priority until another
// context calls Kernel.Wakeup(wchan). Sleeps at priority above PZERO
// are interruptible: a posted signal breaks the sleep and Sleep returns
// ErrIntr. Mirrors 4.3BSD sleep().
func (p *Proc) Sleep(wchan any, pri int) error {
	if wchan == nil {
		panic("kernel: Sleep on nil wchan")
	}
	p.assertRunning("Sleep")
	if pri > PZERO {
		if p.sigPending != 0 {
			return ErrIntr
		}
		// Fault site: a signal arriving exactly as the process commits
		// to an interruptible sleep. Firing posts a real SIGIO so the
		// caller's handler loop observes a pending signal, then breaks
		// the sleep the way psignal would have.
		if p.k.sleepSignal.Hit(int64(p.pid)) {
			p.k.Post(p, SIGIO)
			return ErrIntr
		}
	}
	p.wchan = wchan
	p.sleepPri = pri
	p.sleepSig = pri > PZERO
	p.wakeErr = nil
	p.req = reqSleep
	p.park()
	return p.wakeErr
}

// Yield gives up the CPU voluntarily; the process goes to the tail of
// the run queue.
func (p *Proc) Yield() {
	p.assertRunning("Yield")
	p.req = reqYield
	p.park()
}

// SleepFor blocks the process for the given virtual duration using the
// callout list (like tsleep with a timeout and no wakeup).
func (p *Proc) SleepFor(d sim.Duration) {
	k := p.k
	// The sleep cannot end before its own callout fires, so one handler
	// and one channel (the handler's slot) serve every SleepFor of p.
	if p.wakeSelf == nil {
		p.wakeSelf = func() { k.Wakeup(&p.wakeSelf) }
	}
	k.Timeout(p.wakeSelf, k.DurationToTicks(d))
	// Uninterruptible: purely a timing primitive.
	_ = p.Sleep(&p.wakeSelf, PSLEP-30) // below PZERO: not signal-interruptible
}

// AtExit registers fn to run when the process exits, in process
// context (it may sleep), before descriptor teardown. Hooks run in
// LIFO order. The VM layer uses this to release leftover mappings so
// a process cannot leak page frames or inode references.
func (p *Proc) AtExit(fn func(*Proc)) {
	p.atExit = append(p.atExit, fn)
}

// runAtExit invokes registered exit hooks LIFO, from the process's own
// coroutine.
func (p *Proc) runAtExit() {
	for i := len(p.atExit) - 1; i >= 0; i-- {
		p.atExit[i](p)
	}
	p.atExit = nil
}

func (p *Proc) assertRunning(op string) {
	if p.k.current != p {
		panic(fmt.Sprintf("kernel: %s called on proc %q which is not current (state %v)", op, p.name, p.state))
	}
}

// Ctx is the execution-context abstraction shared by process context
// and interrupt context. Buffer-cache and driver code takes a Ctx so
// the same functions can be called from a system call (may sleep) or
// from an interrupt/callout handler (must not sleep) — the distinction
// the paper's modified bread/getblk exist to manage.
type Ctx interface {
	// Kern returns the kernel.
	Kern() *Kernel
	// Use charges kernel-mode CPU time to this context.
	Use(d sim.Duration)
	// CanSleep reports whether this context may block.
	CanSleep() bool
	// Sleep blocks on wchan (only when CanSleep). pri follows the BSD
	// convention.
	Sleep(wchan any, pri int) error
}

// procCtx adapts Proc to Ctx (kernel-mode charging).
type procCtx struct{ p *Proc }

func (c procCtx) Kern() *Kernel                  { return c.p.k }
func (c procCtx) Use(d sim.Duration)             { c.p.UseK(d) }
func (c procCtx) CanSleep() bool                 { return true }
func (c procCtx) Sleep(wchan any, pri int) error { return c.p.Sleep(wchan, pri) }

// Ctx returns the process's kernel execution context.
func (p *Proc) Ctx() Ctx { return procCtx{p} }

// nbCtx is the nonblocking process context: CPU time is charged to the
// process as usual, but the object must not block indefinitely —
// pollable objects observe CanSleep() == false and return ErrWouldBlock
// (or a partial count) instead. Used by the descriptor layer when
// ONonblock is set on a pollable descriptor.
type nbCtx struct{ p *Proc }

func (c nbCtx) Kern() *Kernel      { return c.p.k }
func (c nbCtx) Use(d sim.Duration) { c.p.UseK(d) }
func (c nbCtx) CanSleep() bool     { return false }
func (c nbCtx) Sleep(wchan any, pri int) error {
	panic("kernel: sleep attempted in nonblocking context")
}

// NBCtx returns the process's nonblocking kernel execution context.
func (p *Proc) NBCtx() Ctx { return nbCtx{p} }

// intrCtx is the interrupt-level execution context: time is stolen from
// whatever was running, and sleeping is forbidden.
type intrCtx struct{ k *Kernel }

func (c intrCtx) Kern() *Kernel      { return c.k }
func (c intrCtx) Use(d sim.Duration) { c.k.StealCPU(d) }
func (c intrCtx) CanSleep() bool     { return false }
func (c intrCtx) Sleep(wchan any, pri int) error {
	panic("kernel: sleep attempted at interrupt level")
}

// IntrCtx returns the kernel's interrupt-level context.
func (k *Kernel) IntrCtx() Ctx { return intrCtx{k} }
