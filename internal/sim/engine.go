package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. Events are created by Engine.Schedule
// and may be cancelled before they fire.
type Event struct {
	when  Time
	seq   uint64 // insertion order; breaks ties deterministically
	index int    // heap index, -1 when not queued
	fn    func()
}

// Pending reports whether the event is still queued (not yet fired or
// cancelled).
func (ev *Event) Pending() bool { return ev != nil && ev.index >= 0 }

// eventQueue is a min-heap ordered by (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is the discrete-event core: a virtual clock plus an ordered
// queue of future events. The engine never advances time on its own;
// callers either pop events (RunNext, AdvanceTo) or move the clock
// explicitly (Consume) to model CPU time being burned.
type Engine struct {
	now    Time
	queue  eventQueue
	nextID uint64
	fired  uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (the event fires as soon as the queue is next drained). label
// names the event at the call site; the engine does not keep it. The
// returned Event may be passed to Cancel.
func (e *Engine) Schedule(delay Duration, label string, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	ev := &Event{
		when: e.now.Add(delay),
		seq:  e.nextID,
		fn:   fn,
	}
	e.nextID++
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a queued event. Cancelling an event that already fired
// or was already cancelled is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	return true
}

// NextEventTime returns the firing time of the earliest queued event.
// ok is false when the queue is empty.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

// RunNext pops and dispatches the earliest event, advancing the clock to
// its firing time (the clock never moves backwards: an event scheduled
// in the past fires at the current time). Returns false when the queue
// is empty.
func (e *Engine) RunNext() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	if ev.when > e.now {
		e.now = ev.when
	}
	e.fired++
	ev.fn()
	return true
}

// RunDue dispatches every event whose firing time is not after the
// current clock, without advancing the clock past it. Returns the
// number of events dispatched.
func (e *Engine) RunDue() int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].when <= e.now {
		e.RunNext()
		n++
	}
	return n
}

// Consume advances the clock by d without dispatching anything. It
// models CPU time charged by non-preemptible work (interrupt handlers,
// kernel critical sections): events that come due during d simply fire
// late, which is exactly the semantics of running with interrupts
// effectively serialised.
func (e *Engine) Consume(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Consume(%d) negative", d))
	}
	e.now = e.now.Add(d)
}

// AdvanceTo moves the clock to t, dispatching every event due on the
// way, in order. If t is in the past the call only drains already-due
// events.
func (e *Engine) AdvanceTo(t Time) {
	for len(e.queue) > 0 && e.queue[0].when <= t {
		e.RunNext()
	}
	if t > e.now {
		e.now = t
	}
}
