package kernel

import (
	"errors"
	"fmt"
	"slices"
)

// This file holds the invariant contract every layer's checker raises
// through (InvariantError, Violation), the kernel-side checker used by
// the simcheck harness, and the probe hook that lets the harness run
// checks at every scheduling boundary.
//
// Invariant catalog (kernel):
//
//	kern-callout-delta   callout delta-list entries are non-negative and
//	                     the walked length matches the stored count
//	kern-runq-state      every run-queue entry is ProcRunnable, with no
//	                     duplicates and without the current process
//	kern-sleepq-state    every sleep-queue entry is ProcSleeping and its
//	                     wchan matches the queue it sits on
//	kern-proc-account    alive matches the number of non-exited processes
//	kern-holds           the keepalive hold count is non-negative
//	poll-reg-count       live poller registrations never go negative
//	poll-leak            (CheckDrained) once a machine has run to
//	                     idle, no poller is still registered on any
//	                     object's queue and nobody sleeps on a poll
//	                     waiter — a leftover registration means a
//	                     wakeup was lost or a poller leaked

// InvariantError is one violated invariant, the same type in every
// layer's catalog and in simcheck's own rules: Name is the catalog name
// (docs/CHECKING.md lists them all), and it survives any %w wrapping, so
// a violation is told from another by errors.As, never by its text.
type InvariantError struct {
	Name   string // e.g. "buf-free-busy"
	Detail string
}

func (e *InvariantError) Error() string {
	return "invariant " + e.Name + " violated: " + e.Detail
}

// Violation is the one constructor. Formatting allocates, which is fine:
// it happens on the failing path only, once per run.
func Violation(name, format string, args ...any) error {
	return &InvariantError{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// ViolationName returns the name of the invariant err reports, "" when
// err wraps no InvariantError (an abort, a trace-checker error).
func ViolationName(err error) string {
	var ie *InvariantError
	if errors.As(err, &ie) {
		return ie.Name
	}
	return ""
}

// Checked is kernel-resident state that no descriptor table reaches (a
// splice descriptor, a stream transport), checked with the kernel that
// holds it: CheckInvariants in every pass, never sleeping, and
// CheckDrained once the machine has run to idle.
type Checked interface {
	CheckInvariants() error
	CheckDrained() error
}

// Track adds c to the objects the kernel's checks walk, after those
// already tracked: registration order makes which violation is reported
// first replay deterministically. Pair with Untrack.
func (k *Kernel) Track(c Checked) { k.tracked = append(k.tracked, c) }

// Untrack removes c, if tracked, from the tracked objects.
func (k *Kernel) Untrack(c Checked) {
	if i := slices.Index(k.tracked, c); i >= 0 {
		k.tracked = slices.Delete(k.tracked, i, i+1)
	}
}

// CheckInvariants verifies the scheduler, sleep queues and callout list,
// then every tracked object, returning the first violation found (nil
// when consistent). It never sleeps, so it is callable from any context.
func (k *Kernel) CheckInvariants() error {
	// Callout delta list.
	n := 0
	for c := k.callouts.head; c != nil; c = c.next {
		if c.delta < 0 {
			return Violation("kern-callout-delta", "negative delta %d at entry %d", c.delta, n)
		}
		if !c.queued {
			return Violation("kern-callout-delta", "fired/cancelled entry still queued at %d", n)
		}
		n++
		if n > k.callouts.n {
			return Violation("kern-callout-delta", "list longer than count %d", k.callouts.n)
		}
	}
	if n != k.callouts.n {
		return Violation("kern-callout-delta", "list holds %d entries, count says %d", n, k.callouts.n)
	}

	// Run queue. Entries are stamped with this pass's number: a stamp
	// already present is a duplicate, and a sleeper carrying it below is
	// queued twice over — no set is built.
	k.ckPass++
	for _, p := range k.runq {
		if p.ckRunq == k.ckPass {
			return Violation("kern-runq-state", "proc %q queued twice", p.name)
		}
		p.ckRunq = k.ckPass
		if p.state != ProcRunnable {
			return Violation("kern-runq-state", "proc %q on run queue in state %v", p.name, p.state)
		}
		if p == k.current {
			return Violation("kern-runq-state", "current proc %q also on run queue", p.name)
		}
	}

	// Sleep queues and process accounting, from the process table in
	// spawn order: the first sleeper met on a queue walks the whole of
	// the queue its wchan names and stamps every entry, so each queue is
	// walked once and a sleeper the walk did not reach is on the wrong
	// queue. Queues holding no sleeper of their own — left behind empty,
	// or holding only strays — show as the table having more queues
	// than were walked.
	live, queues := 0, 0
	for _, p := range k.procs {
		if p.state != ProcExited {
			live++
		}
		if p.state != ProcSleeping || p.ckSleep == k.ckPass {
			continue
		}
		queues++
		for q := k.sleepq[p.wchan].head; q != nil; q = q.sleepNext {
			if q.ckSleep == k.ckPass {
				return Violation("kern-sleepq-state", "proc %q on its sleep queue twice", q.name)
			}
			if q.state != ProcSleeping {
				return Violation("kern-sleepq-state", "proc %q on sleep queue in state %v", q.name, q.state)
			}
			if q.wchan != p.wchan {
				return Violation("kern-sleepq-state", "proc %q sleeping on wrong queue", q.name)
			}
			if q.ckRunq == k.ckPass {
				return Violation("kern-sleepq-state", "proc %q on both run and sleep queues", q.name)
			}
			q.ckSleep = k.ckPass
		}
		if p.ckSleep != k.ckPass {
			return Violation("kern-sleepq-state", "proc %q sleeping on wrong queue", p.name)
		}
	}
	if queues != len(k.sleepq) {
		return Violation("kern-sleepq-state", "%d sleep queues but only %d hold a sleeper", len(k.sleepq), queues)
	}
	if live != k.alive {
		return Violation("kern-proc-account", "%d live procs, alive says %d", live, k.alive)
	}
	if k.holds < 0 {
		return Violation("kern-holds", "negative hold count %d", k.holds)
	}
	if k.pollRegs < 0 {
		return Violation("poll-reg-count", "negative poller registration count %d", k.pollRegs)
	}
	for _, c := range k.tracked {
		if err := c.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// CheckDrained verifies that an idle machine holds no poll state —
// every poller registration has been dropped (by Notify, timeout, or
// the poller's own unwind) and no process is parked on a poll waiter —
// and that every tracked object is at rest.
func (k *Kernel) CheckDrained() error {
	if k.pollRegs != 0 {
		return Violation("poll-leak", "%d poller registration(s) outstanding at drain", k.pollRegs)
	}
	for wchan, q := range k.sleepq {
		if _, ok := wchan.(*pollWaiter); ok && q.head != nil {
			return Violation("poll-leak", "proc %q still sleeping in poll at drain", q.head.name)
		}
	}
	for _, c := range k.tracked {
		if err := c.CheckDrained(); err != nil {
			return err
		}
	}
	return nil
}

// SetProbe installs fn to be invoked at every scheduling boundary
// (Kernel.boundary: after due events fire, before the next process
// step). The simcheck harness uses it to check invariants between
// events; nil disables the probe. A boundary may be taken on a
// process's stack (Proc.Use), so the probe must not sleep, charge CPU
// or mutate kernel state.
func (k *Kernel) SetProbe(fn func()) { k.probe = fn }

// Abort makes Run return err at the next scheduling boundary without
// executing any further process steps. The simcheck harness calls it
// when an invariant trips: every machine state after a violation is
// untrustworthy, so the world halts rather than running on garbage.
func (k *Kernel) Abort(err error) {
	if k.abortErr == nil {
		k.abortErr = err
	}
}
