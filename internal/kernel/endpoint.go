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

// FIFO is a byte queue in a ring it owns: a byte is copied in by Push,
// copied out by CopyOut and never moved in between, however long the
// queue stays full. The ring is allocated by the first Push, sized by
// what it had to hold, and replaced at twice the size or more when a
// Push finds it too small.
type FIFO struct {
	mem  []byte
	head int // index in mem of the oldest byte
	n    int // bytes queued
}

// Len returns the number of queued bytes.
func (f *FIFO) Len() int { return f.n }

// Push appends b.
func (f *FIFO) Push(b []byte) {
	if need := f.n + len(b); need > len(f.mem) {
		mem := make([]byte, max(need, 2*len(f.mem)))
		f.CopyOut(mem, 0)
		f.mem, f.head = mem, 0
	}
	tail := f.head + f.n
	if tail >= len(f.mem) {
		tail -= len(f.mem)
	}
	k := copy(f.mem[tail:], b)
	copy(f.mem, b[k:]) // the part past the wrap
	f.n += len(b)
}

// CopyOut copies queued bytes into dst, starting off bytes behind the
// oldest, and returns how many it copied: len(dst) or what is queued
// from off on, whichever is less. The bytes stay queued.
func (f *FIFO) CopyOut(dst []byte, off int) int {
	n := min(len(dst), f.n-off)
	if n <= 0 {
		return 0
	}
	start := f.head + off
	if start >= len(f.mem) {
		start -= len(f.mem)
	}
	k := copy(dst[:n], f.mem[start:])
	copy(dst[k:n], f.mem) // the part past the wrap
	return n
}

// Drop discards the oldest n bytes.
func (f *FIFO) Drop(n int) {
	if n < 0 || n > f.n {
		panic("kernel: FIFO.Drop out of range")
	}
	f.n -= n
	if f.n == 0 {
		f.head = 0 // a queue that keeps emptying stays in the ring's first bytes
		return
	}
	if f.head += n; f.head >= len(f.mem) {
		f.head -= len(f.mem)
	}
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
// the splice watermarks. The endpoint consumes the FIFO from the front
// (CopyOut, Drop) and calls Admit whenever it has made room.
type WriteQueue struct {
	Cap     int
	FIFO    // the admitted bytes
	waiting Queue[queuedWrite]
}

type queuedWrite struct {
	data []byte // what is not admitted yet; the writer's own bytes, on loan
	done func(error)
}

// Queue accepts a write behind the earlier ones. One that fits whole with
// nobody queued ahead is admitted and done(nil) fires at once, as the
// next Admit would have had it. Any other write waits, and the queue
// borrows data rather than copying it: the writer leaves the bytes alone
// until done fires (a splice keeps the source buffer busy until its
// write completes; a process blocked in AwaitWrite is asleep on them).
// done fires exactly once: with nil from Queue, Admit or Flush once the
// last byte is admitted, or with Abort's error.
func (q *WriteQueue) Queue(data []byte, done func(error)) {
	if q.Writable() && len(data) <= q.Cap-q.Len() {
		q.Push(data)
		done(nil)
		return
	}
	q.waiting.Push(queuedWrite{data: data, done: done})
}

// Admit moves queued bytes into the FIFO in arrival order while it has
// room, completing each write whose last byte went in.
func (q *WriteQueue) Admit() {
	for q.waiting.Len() > 0 {
		w := q.waiting.Front()
		space := q.Cap - q.Len()
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
func (q *WriteQueue) Writable() bool { return q.waiting.Len() == 0 && q.Len() < q.Cap }

// TryWrite is the nonblocking write: it admits what fits right now and
// returns the count, or ErrWouldBlock when not a single byte can go in.
func (q *WriteQueue) TryWrite(b []byte) (int, error) {
	if !q.Writable() {
		return 0, ErrWouldBlock
	}
	n := min(len(b), q.Cap-q.Len())
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

// awaiter is the completion state of one AwaitWrite. A process keeps a
// spare in Proc.aw, so a blocking write allocates neither the state nor
// the callback it hands to the endpoint.
type awaiter struct {
	k     *Kernel
	fired bool
	err   error
	done  func(error) // complete, bound once
}

func (a *awaiter) complete(err error) {
	a.fired, a.err = true, err
	a.k.Wakeup(a)
}

// AwaitWrite is the blocking write(2) over an endpoint's own sink half
// (write is its SpliceWrite): it awaits a completion callback from
// process context, sleeping until done has fired, and returns len(b) or
// done's error. A context that cannot sleep does not wait — the write
// finishes on its own and counts as accepted. The caller then has b back
// before done has fired, so a caller that cannot sleep must not hand
// AwaitWrite a write that lends b (a WriteQueue's): Conn and Pipe serve
// such a context with TryWrite, and a socket has copied b into its
// packet when write returns. A sleeping caller is safe: the sleep, at
// PSOCK, is not interruptible, so it ends only once done has fired (were
// it to fail all the same, its error is returned, the write left running).
func AwaitWrite(ctx Ctx, b []byte, write func(data []byte, done func(error))) (int, error) {
	var a *awaiter
	pc, inProc := ctx.(procCtx)
	if inProc && pc.p.aw != nil {
		a, pc.p.aw = pc.p.aw, nil
		a.fired, a.err = false, nil
	} else {
		a = &awaiter{k: ctx.Kern()}
		a.done = a.complete
	}
	write(b, a.done)
	var serr error
	for !a.fired && serr == nil && ctx.CanSleep() {
		serr = ctx.Sleep(a, PSOCK)
	}
	if a.fired && inProc {
		pc.p.aw = a // done has run and will not again: the record is spare
	}
	switch {
	case serr != nil:
		return 0, serr
	case a.fired && a.err != nil:
		return 0, a.err
	}
	return len(b), nil
}
