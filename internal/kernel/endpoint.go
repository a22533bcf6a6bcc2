package kernel

// The buffering contract of a splice endpoint, written once — the role
// 4.3BSD gives one struct sockbuf under every socket type. An endpoint
// that buffers (pipe, framebuffer, datagram socket, stream connection)
// holds a ParkedRead for its source half, a WriteQueue for its sink
// half if completion means "admitted to a bounded buffer", and blocks
// its read(2) through SleepUntil and its write(2) through AwaitWrite on
// its own sink half. The endpoint supplies only what is its own: whether it
// is ready (data or end of stream), how to take bytes from its buffer,
// and what draining sets in motion.
//
// Two endpoints stand apart on purpose: dev.DAC completes a write when
// the bytes have been played, not when they are admitted, so its queue
// is a playback schedule rather than an admission queue; dev.Null has
// no queue at all.

// ParkedRead is the source half: the slot where at most one splice read
// waits for data. The zero value is an empty slot.
type ParkedRead struct {
	max     int
	deliver func(data []byte, eof bool, err error)
}

// Read is the body of SpliceRead. A ready endpoint delivers take(max)
// at once and Read reports true, so the caller can run whatever the
// drain enables; otherwise the read parks until Serve, Fail or Cancel.
// deliver owns the data it is handed: take must return a slice nothing
// else refers to, not a window of the endpoint's buffer.
// A second read while one is parked is refused with ErrWouldBlock and
// the first stays parked.
func (r *ParkedRead) Read(max int, deliver func([]byte, bool, error),
	ready bool, take func(max int) (data []byte, eof bool)) bool {
	switch {
	case ready:
		data, eof := take(max)
		deliver(data, eof, nil)
		return true
	case r.deliver != nil:
		deliver(nil, false, ErrWouldBlock)
	default:
		r.max, r.deliver = max, deliver
	}
	return false
}

// Serve hands take(max) to the parked read if there is one and the
// endpoint has become ready, reporting whether it did. Endpoints call
// it from every path that brings data or end of stream.
func (r *ParkedRead) Serve(ready bool, take func(max int) (data []byte, eof bool)) bool {
	if r.deliver == nil || !ready {
		return false
	}
	deliver := r.deliver
	r.deliver = nil
	data, eof := take(r.max)
	deliver(data, eof, nil)
	return true
}

// Fail completes the parked read, if any, with err.
func (r *ParkedRead) Fail(err error) {
	if deliver := r.deliver; deliver != nil {
		r.deliver = nil
		deliver(nil, false, err)
	}
}

// Cancel is the body of CancelSpliceRead: it withdraws the parked read,
// whose deliver will then never run, and reports whether there was one.
func (r *ParkedRead) Cancel() bool {
	parked := r.deliver != nil
	r.deliver = nil
	return parked
}

// Parked reports whether a read is waiting.
func (r *ParkedRead) Parked() bool { return r.deliver != nil }

// FIFO is a byte queue in one backing array that it owns. Buf is a
// window of that array and moves on every Push: consume it by re-slicing
// from the front (f.Buf = f.Buf[n:]), never hold a sub-slice across a Push.
type FIFO struct {
	Buf []byte // the queued bytes, oldest first
	mem []byte // allocated by the first Push, sized by what it had to hold
}

// Push appends b. With no room left behind the window the queued bytes
// first slide back to the start of the backing array (one memmove, no new
// array); it is replaced, at twice the size or more, only if that fails.
func (f *FIFO) Push(b []byte) {
	if need := len(f.Buf) + len(b); need > cap(f.Buf) {
		if need > cap(f.mem) {
			f.mem = make([]byte, max(need, 2*cap(f.mem)))
		}
		f.Buf = f.mem[:copy(f.mem, f.Buf)]
	}
	f.Buf = append(f.Buf, b...)
}

// Queue is a FIFO of values popped one at a time. Pop clears the slot it
// leaves, so what was popped is not kept reachable, and an emptied queue
// starts over at the first slot of its backing array.
type Queue[T any] struct {
	items []T // items[head:] are queued
	head  int
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push adds v at the back. A queue that never empties reclaims its popped
// slots here, once they are most of a full array, rather than growing.
func (q *Queue[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Front returns the oldest value in place, until the next Push or Pop.
func (q *Queue[T]) Front() *T { return &q.items[q.head] }

// Pop removes and returns the oldest value.
func (q *Queue[T]) Pop() (v T) {
	v, q.items[q.head] = q.items[q.head], v
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// WriteQueue is the sink half: a byte FIFO bounded by Cap with the
// writes that do not fit yet queued in front of it. Admission, not
// consumption, completes a write — the flow control that composes with
// the splice watermarks. The endpoint consumes Buf from the front and
// calls Admit whenever it has made room.
type WriteQueue struct {
	Cap     int
	FIFO    // Buf holds the admitted bytes
	waiting Queue[queuedWrite]
}

type queuedWrite struct {
	data []byte
	done func(error)
}

// Queue accepts a write behind the earlier ones. One that fits whole with
// nobody queued ahead goes straight into Buf and done(nil) fires at once,
// as the next Admit would have had it. Any other write waits, and the
// queue then keeps its own copy of data unless the caller gives the bytes
// away (owned). done fires exactly once: with nil from Queue, Admit or
// Flush once the last byte is in Buf, or with Abort's error.
func (q *WriteQueue) Queue(data []byte, owned bool, done func(error)) {
	if q.Writable() && len(data) <= q.Cap-len(q.Buf) {
		q.Push(data)
		done(nil)
		return
	}
	if !owned {
		data = append([]byte(nil), data...)
	}
	q.waiting.Push(queuedWrite{data, done})
}

// Admit moves queued bytes into Buf in arrival order while it has room,
// completing each write whose last byte went in.
func (q *WriteQueue) Admit() {
	for q.waiting.Len() > 0 {
		w := q.waiting.Front()
		space := q.Cap - len(q.Buf)
		if space <= 0 {
			return
		}
		n := min(len(w.data), space)
		q.Push(w.data[:n])
		w.data = w.data[n:]
		if len(w.data) > 0 {
			return
		}
		q.waiting.Pop().done(nil)
	}
}

// Writable reports that a write would admit at least one byte now:
// there is room and no earlier write is queued ahead.
func (q *WriteQueue) Writable() bool { return q.waiting.Len() == 0 && len(q.Buf) < q.Cap }

// TryWrite is the nonblocking write: it admits what fits right now and
// returns the count, or ErrWouldBlock when not a single byte can go in.
func (q *WriteQueue) TryWrite(b []byte) (int, error) {
	if !q.Writable() {
		return 0, ErrWouldBlock
	}
	n := min(len(b), q.Cap-len(q.Buf))
	q.Push(b[:n])
	return n, nil
}

// Abort fails every write still queued: nothing is promised to make
// room for them any more.
func (q *WriteQueue) Abort(err error) {
	stranded := q.waiting
	q.waiting = Queue[queuedWrite]{}
	for stranded.Len() > 0 {
		stranded.Pop().done(err)
	}
}

// Flush admits every queued write regardless of Cap, for a close that
// must cover them.
func (q *WriteQueue) Flush() {
	for q.waiting.Len() > 0 {
		w := q.waiting.Pop()
		q.Push(w.data)
		w.done(nil)
	}
}

// Queued returns the number of writes not yet fully admitted.
func (q *WriteQueue) Queued() int { return q.waiting.Len() }

// SleepUntil is the blocking half of a read(2) or close(2) on an
// endpoint: it sleeps on wchan at pri until cond holds. A context that
// cannot sleep gets ErrWouldBlock instead; an interrupted sleep returns
// the sleep's error.
func SleepUntil(ctx Ctx, wchan any, pri int, cond func() bool) error {
	for !cond() {
		if !ctx.CanSleep() {
			return ErrWouldBlock
		}
		if err := ctx.Sleep(wchan, pri); err != nil {
			return err
		}
	}
	return nil
}

// AwaitWrite is the blocking write(2) over an endpoint's own sink half
// (write is its SpliceWrite): it awaits a completion callback from
// process context, sleeping until done has fired, and returns len(b) or
// done's error. A context that cannot sleep does not wait — the write
// finishes on its own and counts as accepted. An interrupted sleep
// returns the sleep's error and leaves the write running.
func AwaitWrite(ctx Ctx, b []byte, write func(data []byte, done func(error))) (int, error) {
	var c struct {
		fired bool
		err   error
	}
	write(b, func(err error) {
		c.fired, c.err = true, err
		ctx.Kern().Wakeup(&c)
	})
	for !c.fired && ctx.CanSleep() {
		if err := ctx.Sleep(&c, PSOCK); err != nil {
			return 0, err
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	return len(b), nil
}
