package sim

import "fmt"

// event is a scheduled callback. The queue holds events by value, so
// scheduling one allocates nothing once the queue has grown to the
// machine's working set.
type event struct {
	when Time
	seq  uint64 // insertion order; breaks ties deterministically
	fn   func()
}

func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is the discrete-event core: a virtual clock plus an ordered
// queue of future events. The engine never advances time on its own;
// callers either pop events (RunNext, AdvanceTo) or move the clock
// explicitly (Consume) to model CPU time being burned.
type Engine struct {
	now    Time
	queue  []event // binary min-heap ordered by (when, seq)
	nextID uint64
	fired  uint64
}

// NewEngine returns an engine with the clock at zero, its queue sized
// for the events a machine keeps pending at once (a lossy stream
// connection keeps 5 to 8), so that a run does not grow it on its busy
// path.
func NewEngine() *Engine {
	return &Engine{queue: make([]event, 0, 16)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (the event fires as soon as the queue is next drained). label
// names the event at the call site; the engine does not keep it.
func (e *Engine) Schedule(delay Duration, label string, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	ev := event{when: e.now.Add(delay), seq: e.nextID, fn: fn}
	e.nextID++
	// Sift up: move later parents down into the hole.
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the earliest event. The vacated slot is
// cleared so the queue does not keep a fired handler reachable.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	// Sift down: move the earlier child up into the hole.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	e.queue = q
	return top
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
	ev := e.pop()
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
