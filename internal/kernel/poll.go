package kernel

import (
	"slices"

	"kdp/internal/trace"
)

// Readiness-based I/O multiplexing in the 4.3BSD select() lineage,
// recast as poll(): a process hands the kernel a set of descriptors and
// the events it cares about, and sleeps until at least one descriptor
// is ready, a timeout fires from the callout list, or a signal arrives.
//
// Pollable objects implement PollOps: a synchronous readiness query
// (PollReady, the selscan half) plus a waiter queue the poller
// registers on before sleeping (the selrecord/selwakeup half). Objects
// call Notify on their queue from the same interrupt-level completion
// paths that wake blocked readers and writers, so no new wakeup
// machinery exists — poll composes with sleep/wakeup exactly the way
// select does in the real kernel.

// Poll event bits (revents-compatible: error conditions are reported
// regardless of what was requested).
const (
	PollIn   = 0x1  // readable: a read or accept would not block
	PollOut  = 0x4  // writable: a write would admit at least one byte
	PollErr  = 0x8  // terminal error pending (always reported)
	PollHup  = 0x10 // peer closed its half (always reported)
	PollNval = 0x20 // descriptor is not open (always reported)
)

// PollFd is one entry of a poll set: the descriptor, the requested
// event bits, and the returned ready bits.
type PollFd struct {
	FD      int
	Events  int
	Revents int
}

// PollOps is implemented by file objects that support readiness
// queries. Objects that do not implement it (regular files, simple
// devices) are considered always ready, as select treats them.
type PollOps interface {
	// PollReady returns the subset of events currently satisfied,
	// plus any PollErr/PollHup condition whether requested or not.
	// It never sleeps.
	PollReady(events int) int
	// PollQueue returns the object's poll waiter queue.
	PollQueue() *PollQueue
}

// pollWaiter is one sleeping (or about to sleep) poller. It doubles as
// the sleep wchan, so Notify can wake exactly the pollers registered on
// the object that became ready.
type pollWaiter struct {
	k        *Kernel
	ready    bool // an object notified since the last scan
	timedOut bool
}

// pollReg is one registration: a waiter plus the event bits it is
// waiting for on this object.
type pollReg struct {
	w      *pollWaiter
	events int
}

// PollQueue is the per-object registry of poll waiters, the analogue of
// 4.3BSD's selinfo. Registration is one-shot: Notify hands every
// matching waiter a wakeup and drops its registration; pollers
// re-register on every scan. The zero value is ready to use.
type PollQueue struct {
	regs []pollReg
}

// register adds w to the queue (at most once; repeated registration
// widens the interest mask).
func (q *PollQueue) register(w *pollWaiter, events int) {
	for i := range q.regs {
		if q.regs[i].w == w {
			q.regs[i].events |= events
			return
		}
	}
	q.regs = append(q.regs, pollReg{w: w, events: events})
	w.k.pollRegs++
	w.k.gen.Bump()
}

// unregister removes w from the queue if present.
func (q *PollQueue) unregister(w *pollWaiter) {
	for i := range q.regs {
		if q.regs[i].w == w {
			q.regs = slices.Delete(q.regs, i, i+1)
			w.k.pollRegs--
			w.k.gen.Bump()
			return
		}
	}
}

// Notify wakes every registered poller whose interest intersects events
// and drops those registrations (selwakeup). Objects call it from the
// completion paths that make them readable (PollIn), writable
// (PollOut), or failed (PollErr|PollHup); waiters interested only in
// other events stay asleep, so a send-space ack does not wake a poller
// watching an idle connection for its next request. Safe at interrupt
// level; a no-op when nobody is polling.
func (q *PollQueue) Notify(events int) {
	if len(q.regs) == 0 {
		return
	}
	kept := q.regs[:0] // filtered in place: a wakeup registers nobody
	for _, r := range q.regs {
		if r.events&events == 0 {
			kept = append(kept, r)
			continue
		}
		r.w.k.pollRegs--
		r.w.k.gen.Bump()
		r.w.ready = true
		r.w.k.Wakeup(r.w)
	}
	clear(q.regs[len(kept):])
	q.regs = kept
}

// Waiters reports how many pollers are currently registered.
func (q *PollQueue) Waiters() int { return len(q.regs) }

// PollRegistrations reports the number of live poller registrations
// across every queue on this kernel (the poll-leak gauge for the
// invariant checker).
func (k *Kernel) PollRegistrations() int { return k.pollRegs }

// Poll scans the descriptor set and returns the number of entries with
// nonzero Revents, blocking until at least one is ready. timeoutTicks
// follows poll(2): negative blocks indefinitely, zero scans once
// without blocking, positive bounds the wait via the callout list (a
// pure timeout returns 0). The sleep is interruptible: a posted signal
// breaks it with ErrIntr.
//
// The classic lost-wakeup race — an object becoming ready between the
// scan that found nothing and the sleep — is closed the same way
// select closes it: the waiter registers on each unready object during
// the scan, and a Notify from any of them (even one firing mid-scan,
// while the scan charges per-descriptor CPU) flags the waiter so the
// sleep is skipped and the set rescanned.
func (p *Proc) Poll(fds []PollFd, timeoutTicks int) (n int, err error) {
	defer p.SyscallExit(p.SyscallEnter("poll"))
	k := p.k
	w := &pollWaiter{k: k}

	var to Callout
	if timeoutTicks > 0 {
		to = k.Timeout(func() {
			w.timedOut = true
			k.Wakeup(w)
		}, timeoutTicks)
	}
	registered := make([]*PollQueue, 0, len(fds))
	defer func() {
		for _, q := range registered {
			q.unregister(w)
		}
		k.Untimeout(to)
		if err == nil {
			k.TraceEmit(trace.KindKernelPoll, p.pid, int64(len(fds)), int64(n), "")
		}
	}()

	for {
		// Drop the previous round's registrations before rescanning.
		for _, q := range registered {
			q.unregister(w)
		}
		registered = registered[:0]

		n = 0
		for i := range fds {
			fds[i].Revents = 0
			p.UseK(k.cfg.PollFdCost)
			f, ferr := p.FD(fds[i].FD)
			if ferr != nil {
				fds[i].Revents = PollNval
				n++
				continue
			}
			po, ok := f.ops.(PollOps)
			if !ok {
				// Regular files and plain devices never block
				// indefinitely: always ready.
				fds[i].Revents = fds[i].Events & (PollIn | PollOut)
				if fds[i].Revents != 0 {
					n++
				}
				continue
			}
			if r := po.PollReady(fds[i].Events); r != 0 {
				fds[i].Revents = r
				n++
				continue
			}
			q := po.PollQueue()
			// Error and hangup conditions are reported regardless of
			// the requested events, so always wait on them too.
			q.register(w, fds[i].Events|PollErr|PollHup)
			registered = append(registered, q)
		}
		if n > 0 || timeoutTicks == 0 || w.timedOut {
			return n, nil
		}
		if !w.ready {
			// PZERO+1: the lowest signal-interruptible priority, the
			// same one 4.3BSD's select sleeps at (PSOCK+1 would sit
			// exactly at PZERO and make the sleep uninterruptible).
			if serr := p.Sleep(w, PZERO+1); serr != nil {
				return 0, serr
			}
		}
		w.ready = false
	}
}
