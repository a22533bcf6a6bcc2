package kernel

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"kdp/internal/sim"
	"kdp/internal/trace"
)

// ErrDeadlock is returned by Run when live processes remain but neither
// runnable work nor pending events exist.
var ErrDeadlock = errors.New("kernel: deadlock: sleeping processes with no pending events")

// ErrWatchdog is returned by Run when Config.MaxRunTime is exceeded.
var ErrWatchdog = errors.New("kernel: watchdog: MaxRunTime exceeded")

// Kernel is the simulated machine: one CPU, a scheduler, the callout
// list, and the system-call surface. Construct with New, add processes
// with Spawn, then drive with Run.
type Kernel struct {
	cfg    Config
	engine *sim.Engine
	rand   *sim.Rand

	procs   []*Proc
	nextPid int
	alive   int
	holds   int // kernel-side keepalive holds (active splices, busy devices)

	runq        []*Proc
	current     *Proc
	lastRun     *Proc
	needResched bool
	quantumLeft int

	sleepq map[any]sleepQueue

	callouts  calloutList
	ticks     int64
	clockOn   bool
	nextTick  sim.Time
	hardclock func() // hardclockIntr, bound once: the tick schedules no closure

	mounts []mountEntry
	devs   []devEntry
	vm     AddressSpaceProvider // mmap/munmap/msync backend (internal/vm)

	// accounting
	idleTime   sim.Duration
	intrTime   sim.Duration
	switchTime sim.Duration
	nSwitches  int64
	nIntr      int64

	pollRegs int // live poller registrations across every PollQueue
	resumes  int // coroutine switches into a process (tests pin the in-place path with it)

	tr         *trace.Tracer
	probe      func() // invoked at every scheduling boundary (simcheck)
	chargeOnly bool   // inside a probe at a charge-only boundary (see ChargeOnly)
	sigRuns    uint64 // signal handlers run (see activity)
	quietTicks uint64 // hardclock events that ran no callout (see activity)
	ckPass     uint64 // CheckInvariants pass counter (see Proc.ckRunq)
	abortErr   error  // set by Abort; Run returns it at the next boundary
	stopErr    error  // what a boundary Proc.Use ran returned; Run returns it as its own

	faults  *FaultPlan // fault-site registry (see fault.go)
	tracked []Checked  // kernel-resident state no descriptor table reaches (see Track)
}

// New builds a kernel from the given configuration.
func New(cfg Config) *Kernel {
	if cfg.HZ <= 0 {
		panic("kernel: Config.HZ must be positive")
	}
	k := &Kernel{
		cfg:     cfg,
		engine:  sim.NewEngine(),
		rand:    sim.NewRand(cfg.Seed),
		nextPid: 1,
		sleepq:  make(map[any]sleepQueue),
	}
	k.hardclock = k.hardclockIntr
	k.faults = newFaultPlan(k)
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() *Config { return &k.cfg }

// Engine returns the underlying event engine. Device models schedule
// their completions on it.
func (k *Kernel) Engine() *sim.Engine { return k.engine }

// Rand returns the machine's deterministic PRNG.
func (k *Kernel) Rand() *sim.Rand { return k.rand }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.engine.Now() }

// Ticks returns the number of hardclock ticks since boot.
func (k *Kernel) Ticks() int64 { return k.ticks }

// StartTrace installs a structured tracer forwarding every event to
// sink (which may be nil for metrics-only tracing) and returns it.
// Tracing charges no virtual time, so enabling it cannot change the
// simulation's timing or outcome. With no tracer installed the
// per-event cost is a single nil check.
func (k *Kernel) StartTrace(sink trace.Sink) *trace.Tracer {
	k.tr = trace.New(sink)
	return k.tr
}

// StopTrace removes the installed tracer, if any.
func (k *Kernel) StopTrace() { k.tr = nil }

// Tracer returns the installed tracer, or nil.
func (k *Kernel) Tracer() *trace.Tracer { return k.tr }

// TraceEmit emits one structured event stamped with the current
// virtual time. It is the emission point for every subsystem (buffer
// cache, disks, network, splice); a no-op without a tracer.
func (k *Kernel) TraceEmit(kind trace.Kind, pid int, a1, a2 int64, name string) {
	if k.tr == nil {
		return
	}
	k.tr.Emit(trace.Event{T: k.engine.Now(), Kind: kind, Pid: int32(pid), Arg1: a1, Arg2: a2, Name: name})
}

// DurationToTicks converts a duration to a whole number of clock ticks,
// rounding up (a callout always waits at least one tick boundary).
func (k *Kernel) DurationToTicks(d sim.Duration) int {
	tick := k.cfg.TickDuration()
	n := int((d + tick - 1) / tick)
	if n < 0 {
		n = 0
	}
	return n
}

// Spawn creates a new process whose body is fn and places it on the run
// queue. The body runs when the scheduler selects it during Run.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if fn == nil {
		panic("kernel: Spawn with nil body")
	}
	p := &Proc{
		k:       k,
		pid:     k.nextPid,
		name:    name,
		state:   ProcRunnable,
		pri:     PUSER,
		basePri: PUSER,
		body:    fn,
	}
	// stop is never called: a process Run abandons (deadlock, watchdog,
	// Abort) stays parked in its coroutine for the life of the program.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		procMain(p)
	})
	k.nextPid++
	k.procs = append(k.procs, p)
	k.alive++
	k.runq = append(k.runq, p)
	return p
}

// procMain is the coroutine body hosting a process. Descriptor teardown
// happens here, in process context, because closing a file can sleep
// (inode writeback); only then does the coroutine end with reqExit.
func procMain(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			p.panicVal = r
		}
		if p.panicVal == nil {
			func() {
				defer func() {
					if r := recover(); r != nil {
						p.panicVal = r
					}
				}()
				p.runAtExit()
				p.closeAllFDs()
			}()
		}
		p.req = reqExit
	}()
	p.body(p)
}

// Hold marks kernel-side work in progress (an active splice, a busy
// device queue) that must keep the simulation running even if every
// process has exited. Pair with Release.
func (k *Kernel) Hold() { k.holds++ }

// Release drops a Hold.
func (k *Kernel) Release() {
	k.holds--
	if k.holds < 0 {
		panic("kernel: Release without Hold")
	}
}

// StealCPU charges d at interrupt level: the clock advances and the
// time is accounted as interrupt time, delaying whatever was running.
func (k *Kernel) StealCPU(d sim.Duration) {
	if d <= 0 {
		return
	}
	k.engine.Consume(d)
	k.intrTime += d
	k.TraceEmit(trace.KindCPUIntr, 0, int64(d), 0, "")
}

// Interrupt models taking a device interrupt: the fixed interrupt cost
// is charged, then fn runs at interrupt level (it may call StealCPU for
// additional handler work but must not sleep).
func (k *Kernel) Interrupt(fn func()) {
	k.nIntr++
	k.StealCPU(k.cfg.InterruptCost)
	fn()
}

// sleepQueue is the processes blocked on one wchan, longest sleeper
// first, threaded through Proc.sleepNext (4.3BSD's p_link).
type sleepQueue struct{ head, tail *Proc }

// enqueueSleeper puts p at the tail of the queue its wchan names.
func (k *Kernel) enqueueSleeper(p *Proc) {
	q := k.sleepq[p.wchan]
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.sleepNext = p
	}
	q.tail = p
	k.sleepq[p.wchan] = q
}

// Wakeup makes every process sleeping on wchan runnable, as 4.3BSD
// wakeup(). Safe to call from any context.
func (k *Kernel) Wakeup(wchan any) {
	q, ok := k.sleepq[wchan]
	if !ok {
		return
	}
	delete(k.sleepq, wchan)
	for p := q.head; p != nil; {
		next := p.sleepNext
		p.sleepNext = nil
		k.makeRunnable(p, p.sleepPri)
		p = next
	}
}

func (k *Kernel) makeRunnable(p *Proc, pri int) {
	if p.state == ProcExited {
		return
	}
	p.state = ProcRunnable
	p.pri = pri
	p.wchan = nil
	k.runq = append(k.runq, p)
	if k.current != nil && pri < k.current.pri {
		k.needResched = true
	}
	k.TraceEmit(trace.KindSchedWakeup, p.pid, int64(pri), 0, p.name)
}

// unsleep removes p from its sleep queue (signal interruption) and
// drops the queue from the table once it is empty.
func (k *Kernel) unsleep(p *Proc) {
	q := k.sleepq[p.wchan]
	var prev *Proc
	for cur := q.head; cur != p; prev, cur = cur, cur.sleepNext {
		if cur == nil {
			return
		}
	}
	if prev == nil {
		q.head = p.sleepNext
	} else {
		prev.sleepNext = p.sleepNext
	}
	if q.tail == p {
		q.tail = prev
	}
	p.sleepNext = nil
	if q.head == nil {
		delete(k.sleepq, p.wchan)
	} else {
		k.sleepq[p.wchan] = q
	}
}

// pickNext removes and returns the best runnable process: lowest
// numeric priority, FIFO among equals.
func (k *Kernel) pickNext() *Proc {
	best := -1
	for i, p := range k.runq {
		if best < 0 || p.pri < k.runq[best].pri {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	p := k.runq[best]
	k.runq = slices.Delete(k.runq, best, best+1)
	return p
}

// otherRunnable reports whether any queued process has priority at or
// better than pri.
func (k *Kernel) otherRunnable(pri int) bool {
	for _, p := range k.runq {
		if p.pri <= pri {
			return true
		}
	}
	return false
}

// Run drives the machine until every process has exited and no
// kernel-side holds remain. It returns ErrDeadlock if live processes
// are all asleep with nothing pending, or ErrWatchdog if MaxRunTime is
// exceeded.
//
// The boundary after an idle step is handed the activity seen before
// the step, like the one after a CPU charge: an idle step over a quiet
// tick leaves it charge-only. The boundary after a process step is
// never charge-only, since the process ran code no count sees.
func (k *Kernel) Run() error {
	k.startClock()
	for since := noCharge; ; {
		if err := k.boundary(since); err != nil {
			return err
		}
		if k.alive == 0 && k.holds == 0 {
			return nil
		}
		p := k.current
		if p == nil {
			p = k.pickNext()
		}
		since = k.activity()
		if p == nil {
			// Idle: advance to the next event. If the only pending
			// event is our own hardclock and the callout list is
			// empty, nothing can ever wake the sleepers: deadlock.
			clockEvents := 0
			if k.clockOn {
				clockEvents = 1
			}
			if k.alive > 0 && k.holds == 0 && k.callouts.empty() &&
				k.engine.Pending() == clockEvents && k.anySignalsPending() == false {
				return ErrDeadlock
			}
			t0 := k.engine.Now()
			if !k.engine.RunNext() {
				if k.alive == 0 {
					return nil
				}
				return ErrDeadlock
			}
			idle := k.engine.Now().Sub(t0)
			k.idleTime += idle
			if idle > 0 {
				k.TraceEmit(trace.KindCPUIdle, 0, int64(idle), 0, "")
			}
			continue
		}
		k.runStep(p)
		since = noCharge
		if k.stopErr != nil {
			return k.stopErr
		}
	}
}

// boundary is one scheduling boundary: the watchdog test, every event
// now due (at interrupt level, on whichever stack got here: Run's, or
// that of the process Proc.Use is charging), the probe, and a pending
// Abort. A non-nil error ends the run. since is activity() as the CPU
// charge or idle step this boundary ends began (noCharge for any other
// boundary): if it has not moved, the probe runs charge-only.
func (k *Kernel) boundary(since uint64) error {
	if k.cfg.MaxRunTime > 0 && sim.Duration(k.engine.Now()) > k.cfg.MaxRunTime {
		return ErrWatchdog
	}
	k.engine.RunDue()
	if k.probe != nil {
		k.chargeOnly = since == k.activity()
		k.probe()
		k.chargeOnly = false
	}
	return k.abortErr
}

// noCharge is the since of a boundary that ends no CPU charge.
const noCharge = ^uint64(0)

// activity counts what can move state outside the kernel while a
// process is charged or the CPU idles: engine events fired, less the
// clock ticks that ran no callout, and signal handlers run. A quiet tick
// adds one to both counts, so the sum only grows, and an unchanged sum
// means nothing but quiet ticks ran.
func (k *Kernel) activity() uint64 { return k.engine.Fired() - k.quietTicks + k.sigRuns }

// ChargeOnly reports whether the running probe is charge-only: it ends a
// Proc.Use charge or an idle step of Run during which no event fired but
// clock ticks that ran no callout, and no signal handler ran. Since the
// probe before, only the kernel's own state (accounting, run queue,
// current process, tick count, quantum, callout deltas, the next tick)
// and the trace have moved. A probe may then re-check just those, and
// whatever reads Ticks. False outside a probe.
func (k *Kernel) ChargeOnly() bool { return k.chargeOnly }

// anySignalsPending reports whether any live process has an undelivered
// signal (which could still unblock an interruptible sleeper).
func (k *Kernel) anySignalsPending() bool {
	for _, p := range k.procs {
		if p.state != ProcExited && p.sigPending != 0 {
			return true
		}
	}
	return false
}

// runStep gives the CPU to p for one step: either serving the rest of a
// CPU charge it was preempted in, or resuming its coroutine until it
// parks again.
func (k *Kernel) runStep(p *Proc) {
	if k.lastRun != p {
		if k.lastRun != nil {
			k.engine.Consume(k.cfg.ContextSwitchCost)
			k.switchTime += k.cfg.ContextSwitchCost
			k.nSwitches++
			k.TraceEmit(trace.KindCPUSwitch, p.pid, int64(k.cfg.ContextSwitchCost), 0, "")
		}
		k.lastRun = p
		k.quantumLeft = k.cfg.QuantumTicks
		k.TraceEmit(trace.KindSchedSwitch, p.pid, 0, 0, p.name)
	}
	k.current = p
	p.state = ProcRunning

	if p.useRem > 0 {
		k.serveUse(p)
		return // either completed (current stays p) or preempted
	}

	// Resume the process coroutine until it parks with a request.
	k.resumes++
	p.next()

	switch p.req {
	case reqUse:
		// Preempted mid-charge (serveUse requeued it) or stopped by a
		// boundary (stopErr): see Proc.Use.
	case reqSleep:
		k.enqueueSleeper(p)
		p.state = ProcSleeping
		p.pri = p.sleepPri
		p.nvcsw++
		k.current = nil
		k.TraceEmit(trace.KindSchedSleep, p.pid, int64(p.sleepPri), 0, p.name)
	case reqYield:
		p.state = ProcRunnable
		p.nvcsw++
		k.runq = append(k.runq, p)
		k.current = nil
	case reqExit:
		k.reapProc(p)
	default:
		panic(fmt.Sprintf("kernel: proc %q parked with unexpected request %d", p.name, p.req))
	}
	p.req = reqNone
}

func (k *Kernel) reapProc(p *Proc) {
	p.state = ProcExited
	k.alive--
	k.current = nil
	if k.lastRun == p {
		k.lastRun = nil
	}
	if p.itimer != nil {
		p.itimer.stop(k)
		p.itimer = nil
	}
	k.Wakeup(p) // anyone waiting on the proc itself
	k.TraceEmit(trace.KindProcExit, p.pid, 0, 0, p.name)
	if p.panicVal != nil {
		panic(p.panicVal)
	}
}

// serveUse advances virtual time while charging CPU to p, interleaving
// any events that come due (device completions, clock ticks). User-mode
// time is preemptible; kernel-mode time runs to completion (interrupts
// still steal time on top).
func (k *Kernel) serveUse(p *Proc) {
	if !p.useKernel {
		// Returning to user mode: priority reverts to the base user
		// priority and pending signals are delivered.
		p.pri = p.basePri
		if p.sigPending != 0 {
			k.deliverSignals(p)
		}
	}
	for p.useRem > 0 {
		k.engine.RunDue()
		if !p.useKernel && k.needResched && k.otherRunnable(p.pri) {
			k.preempt(p)
			return
		}
		next, haveNext := k.engine.NextEventTime()
		now := k.engine.Now()
		end := now.Add(p.useRem)
		if !haveNext || next >= end {
			k.engine.Consume(p.useRem)
			k.chargeUse(p, p.useRem)
			p.useRem = 0
			break
		}
		delta := next.Sub(now)
		if delta < 0 {
			delta = 0
		}
		k.engine.AdvanceTo(next)
		k.chargeUse(p, delta)
		p.useRem -= delta
	}
	if p.useRem == 0 {
		k.engine.RunDue()
		if k.needResched && !p.useKernel && k.otherRunnable(p.pri) {
			k.preempt(p)
		}
	}
}

func (k *Kernel) chargeUse(p *Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	if p.useKernel {
		p.stime += d
		k.TraceEmit(trace.KindCPUSys, p.pid, int64(d), 0, "")
	} else {
		p.utime += d
		k.TraceEmit(trace.KindCPUUser, p.pid, int64(d), 0, "")
	}
}

func (k *Kernel) preempt(p *Proc) {
	p.state = ProcRunnable
	p.nicsw++
	k.runq = append(k.runq, p)
	k.current = nil
	k.needResched = false
	k.TraceEmit(trace.KindSchedPreempt, p.pid, int64(p.useRem), 0, p.name)
}

// startClock arms the periodic hardclock.
func (k *Kernel) startClock() {
	if k.clockOn {
		return
	}
	k.clockOn = true
	k.nextTick = k.engine.Now().Add(k.cfg.TickDuration())
	k.engine.Schedule(k.cfg.TickDuration(), "hardclock", k.hardclock)
}

// scheduleNextTick arms the next hardclock at a fixed absolute cadence:
// the hardware timer does not drift because handlers burned CPU.
func (k *Kernel) scheduleNextTick() {
	k.nextTick = k.nextTick.Add(k.cfg.TickDuration())
	delay := k.nextTick.Sub(k.engine.Now())
	if delay < 0 {
		delay = 0
	}
	k.engine.Schedule(delay, "hardclock", k.hardclock)
}

// hardclockIntr is the 100Hz (by default) clock interrupt: it advances
// the tick count, runs softclock (the callout list), and implements
// round-robin preemption for equal-priority user processes. A tick that
// runs no callout is counted quiet: it touches nothing outside the
// kernel (see activity).
func (k *Kernel) hardclockIntr() {
	k.ticks++
	if !k.softclock() {
		k.quietTicks++
	}
	// Charge the quantum to whoever holds the CPU, in either mode (as
	// 4.3BSD charges p_cpu); preemption itself still waits for the
	// next user-mode boundary.
	if k.current != nil {
		k.quantumLeft--
		if k.quantumLeft <= 0 {
			k.quantumLeft = k.cfg.QuantumTicks
			if k.otherRunnable(k.current.pri) {
				k.needResched = true
			}
		}
	}
	if k.alive > 0 || k.holds > 0 || !k.callouts.empty() {
		k.scheduleNextTick()
	} else {
		k.clockOn = false
	}
}

// CPUStats is a snapshot of machine-wide CPU accounting.
type CPUStats struct {
	Now        sim.Time
	Idle       sim.Duration
	Interrupt  sim.Duration
	Switching  sim.Duration
	Switches   int64
	Interrupts int64
	Ticks      int64
}

// Stats returns machine-wide CPU accounting counters.
func (k *Kernel) Stats() CPUStats {
	return CPUStats{
		Now:        k.engine.Now(),
		Idle:       k.idleTime,
		Interrupt:  k.intrTime,
		Switching:  k.switchTime,
		Switches:   k.nSwitches,
		Interrupts: k.nIntr,
		Ticks:      k.ticks,
	}
}
