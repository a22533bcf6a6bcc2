package kernel

import "kdp/internal/trace"

// The callout list is the classic 4.3BSD mechanism for deferred kernel
// work: timeout(fn, ticks) queues fn to run from softclock after the
// given number of clock ticks. Entries are kept in a delta list, as in
// the original, and fire with tick granularity.
//
// splice depends on this: the paper's read-completion handler schedules
// the write side "by placing a reference to the write handler at the
// head of the system callout list" (ticks == 0, firing at the next
// softclock), which is what decouples the source and sink I/O access
// periods.

// callout is one entry of the list. Records are recycled through the
// kernel's free list (4.3BSD's callfree): softclock and Untimeout return
// them, Timeout takes one, so arming a timer allocates nothing once the
// list has held its working set.
//
// A record parked on a wait channel (Park) is off the list: it hangs
// from the channel's entry in the sleep table, linked through next in
// park order, until Wakeup moves it to the head of the list.
type callout struct {
	fn     func()
	delta  int // ticks after the previous entry
	next   *callout
	wchan  any    // the channel it is parked on; nil when not parked
	queued bool   // on the callout list (not fired, cancelled or free)
	gen    uint64 // bumped each time the record is armed
	ck     uint64 // the CheckInvariants pass that last reached it parked
}

// Callout is a handle to a queued callout; it can be cancelled with
// Untimeout. The zero value names no callout. A handle carries the
// generation its record was armed with, so one kept past the firing or
// cancellation of its callout can never cancel the later timer that
// reuses the record.
type Callout struct {
	c   *callout
	gen uint64
}

type calloutList struct {
	head *callout
	n    int
	free *callout   // recycled records, linked through next
	due  []*callout // softclock's batch, kept for its backing array
	all  []*callout // every record ever made, for the catalog's parked walk
}

func (cl *calloutList) empty() bool { return cl.head == nil }

// arm takes a record off the free list, making one only when the list
// is empty, and binds fn to it under a new generation.
func (cl *calloutList) arm(fn func()) *callout {
	if fn == nil {
		panic("kernel: callout with nil fn")
	}
	c := cl.free
	if c == nil {
		c = &callout{}
		cl.all = append(cl.all, c)
	} else {
		cl.free = c.next
	}
	c.fn, c.next = fn, nil
	c.gen++
	return c
}

// release returns a record that has left the list, or its channel, to
// the free list.
func (cl *calloutList) release(c *callout) {
	c.fn, c.queued, c.wchan = nil, false, nil
	c.next, cl.free = cl.free, c
}

// requeue moves the chain first..last of records parked on one channel,
// in park order, to the head of the list: behind the entries already due
// (delta 0), as Timeout(fn, 0) queues, so they fire at the next
// softclock.
func (cl *calloutList) requeue(first, last *callout) {
	var prev *callout
	cur := cl.head
	for cur != nil && cur.delta == 0 {
		prev, cur = cur, cur.next
	}
	for c := first; c != nil; c = c.next {
		c.wchan, c.delta, c.queued = nil, 0, true
		cl.n++
	}
	last.next = cur
	if prev == nil {
		cl.head = first
	} else {
		prev.next = first
	}
}

// Timeout queues fn to run from softclock after ticks clock ticks.
// ticks <= 0 means the next softclock (the head of the callout list).
func (k *Kernel) Timeout(fn func(), ticks int) Callout {
	if ticks < 0 {
		ticks = 0
	}
	cl := &k.callouts
	c := cl.arm(fn)
	c.queued = true
	cl.n++
	k.gen.Bump()

	// Insert into the delta list.
	var prev *callout
	cur := cl.head
	rem := ticks
	for cur != nil && rem >= cur.delta {
		rem -= cur.delta
		prev = cur
		cur = cur.next
	}
	c.delta = rem
	c.next = cur
	if cur != nil {
		cur.delta -= rem
	}
	if prev == nil {
		cl.head = c
	} else {
		prev.next = c
	}
	return Callout{c, c.gen}
}

// Park is the interrupt-level sleep: it parks fn on wchan, in the sleep
// table beside any process sleeping there, and the next Wakeup(wchan)
// moves it to the head of the callout list, so that it runs from the
// following softclock — at interrupt level, like every callout. A
// handler that cannot proceed without sleeping parks its retry on the
// channel it would have slept on, instead of polling for the condition
// every tick. Wakeup wakes every waiter, so fn must test its condition
// again. Untimeout cancels it, parked or queued.
func (k *Kernel) Park(wchan any, fn func()) Callout {
	if wchan == nil {
		panic("kernel: Park on nil wchan")
	}
	c := k.callouts.arm(fn)
	c.wchan = wchan
	q := k.sleepq[wchan]
	if q.lastCallout == nil {
		q.callouts = c
	} else {
		q.lastCallout.next = c
	}
	q.lastCallout = c
	k.sleepq[wchan] = q
	k.gen.Bump()
	return Callout{c, c.gen}
}

// unpark removes parked record c from its channel's chain, dropping the
// channel from the sleep table once nothing waits on it.
func (k *Kernel) unpark(c *callout) {
	q := k.sleepq[c.wchan]
	var prev *callout
	for cur := q.callouts; cur != c; prev, cur = cur, cur.next {
	}
	if prev == nil {
		q.callouts = c.next
	} else {
		prev.next = c.next
	}
	if q.lastCallout == c {
		q.lastCallout = prev
	}
	k.storeSleepq(c.wchan, q)
}

// Untimeout cancels a queued or parked callout. Returns false if it
// already fired or was already cancelled.
func (k *Kernel) Untimeout(h Callout) bool {
	c := h.c
	if c == nil || c.gen != h.gen {
		return false
	}
	if c.wchan != nil {
		k.unpark(c)
		k.callouts.release(c)
		k.gen.Bump()
		return true
	}
	if !c.queued {
		return false
	}
	cl := &k.callouts
	var prev *callout
	for cur := cl.head; cur != nil; prev, cur = cur, cur.next {
		if cur != c {
			continue
		}
		if cur.next != nil {
			cur.next.delta += cur.delta
		}
		if prev == nil {
			cl.head = cur.next
		} else {
			prev.next = cur.next
		}
		cl.n--
		cl.release(c)
		k.gen.Bump()
		return true
	}
	return false
}

// PendingCallouts reports the number of queued callouts; a parked one
// counts from its wakeup.
func (k *Kernel) PendingCallouts() int { return k.callouts.n }

// softclock fires every callout due this tick. Handlers run at
// interrupt level: each dispatch charges CalloutDispatchCost as stolen
// time, and handlers must not sleep.
func (k *Kernel) softclock() {
	cl := &k.callouts
	if cl.head == nil {
		return
	}
	// One decrement per tick, as in 4.3BSD hardclock — but applied to
	// the first entry with time remaining, not blindly to the head. A
	// zero-ticks callout (splice schedules one per completion, "the
	// head of the system callout list") sits at the head with delta 0;
	// decrementing only the head would let a steady stream of such
	// entries starve the timers queued behind them, delaying every
	// pending timeout by one tick per zero-delta tick. Retransmission
	// timers and retired-connection reaps slipped their deadlines
	// exactly this way whenever packet loss kept them queued while a
	// splice was streaming.
	for c := cl.head; c != nil; c = c.next {
		if c.delta > 0 {
			c.delta--
			break
		}
	}
	// Collect all entries due now (delta zero at the head). Handlers
	// may queue new callouts; those are inserted for future ticks and
	// must not fire in this pass, so detach first.
	due := cl.due[:0]
	if cl.head.delta == 0 {
		// Entries leave the list. The decrement above needs no bump:
		// a positive delta stays non-negative, all the catalog asks.
		k.gen.Bump()
	}
	for cl.head != nil && cl.head.delta == 0 {
		c := cl.head
		cl.head = c.next
		c.next = nil
		c.queued = false
		cl.n--
		due = append(due, c)
	}
	for i, c := range due {
		k.StealCPU(k.cfg.CalloutDispatchCost)
		k.TraceEmit(trace.KindCalloutFire, 0, int64(cl.n), 0, "")
		fn := c.fn
		due[i] = nil
		cl.release(c) // before fn runs: a handler re-arming itself reuses its own record
		fn()
	}
	cl.due = due[:0]
}
