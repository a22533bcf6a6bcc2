package kernel

import "kdp/internal/sim"

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
	deliver Deliver
}

// Deliver is a splice read's completion: data, and blk, the block data
// is a window of, with one reference that deliver owns and drops when it
// is done with the bytes. A nil blk comes with bytes of no block, which
// deliver owns outright.
type Deliver func(data []byte, blk *sim.Block, eof bool, err error)

// Take removes up to max bytes from an endpoint's buffer for a splice
// read, by reference: a span of the endpoint's own FIFO or packet with a
// reference taken for the reader, or a copy in one block of the
// machine's Spares (FIFO.Take), never a slice of the Go heap.
type Take func(max int) (data []byte, blk *sim.Block, eof bool)

// Read is the body of SpliceRead. A ready endpoint delivers take(max)
// at once and Read reports true, so the caller can run whatever the
// drain enables; otherwise the read parks until Serve, Fail or Cancel.
// A second read while one is parked is refused with ErrWouldBlock and
// the first stays parked.
func (r *ParkedRead) Read(max int, deliver Deliver, ready bool, take Take) bool {
	switch {
	case ready:
		data, blk, eof := take(max)
		deliver(data, blk, eof, nil)
		return true
	case r.deliver != nil:
		deliver(nil, nil, false, ErrWouldBlock)
	default:
		r.max, r.deliver = max, deliver
	}
	return false
}

// Serve hands take(max) to the parked read if there is one and the
// endpoint has become ready, reporting whether it did. Endpoints call
// it from every path that brings data or end of stream.
func (r *ParkedRead) Serve(ready bool, take Take) bool {
	if r.deliver == nil || !ready {
		return false
	}
	deliver := r.deliver
	r.deliver = nil
	data, blk, eof := take(r.max)
	deliver(data, blk, eof, nil)
	return true
}

// Fail completes the parked read, if any, with err.
func (r *ParkedRead) Fail(err error) {
	if deliver := r.deliver; deliver != nil {
		r.deliver = nil
		deliver(nil, nil, false, err)
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

// FIFO is a byte queue held as a chain of block spans (sim.Span), the
// way a 4.4BSD socket buffer is a chain of mbufs over clusters: Push
// copies bytes into a block of the queue's own, Share takes a reference
// to a block someone else filled instead of copying it, Spans hands a
// reader the queued bytes by reference, and Drop lets the oldest go. A
// byte Push copies in is never moved again; only CopyOut (and Read,
// which drops what it copied) copies it out.
//
// Push stores into the newest block only while nothing else references
// it (the one sharing rule, as buf.Cache.Store's): a block a packet or
// another queue shares is never written, so a holder's bytes cannot
// change under it. A block the queue lets go of last goes to Spares.
type FIFO struct {
	// Spares is where the queue draws the blocks it stores into and
	// leaves the ones it lets go of last.
	Spares *Spares
	spans  Queue[sim.Span] // oldest first
	n      int             // bytes queued
	// sharedStores counts Pushes that stored into a block something
	// else referenced: none ever does (SpanFault reports one).
	sharedStores int
}

// Len returns the number of queued bytes.
func (f *FIFO) Len() int { return f.n }

// Push appends a copy of b: into the newest block's free bytes while the
// queue holds that block alone, then into blocks drawn from Spares.
func (f *FIFO) Push(b []byte) {
	f.n += len(b)
	if k := f.spans.Len(); k > 0 && len(b) > 0 {
		if t := f.spans.At(k - 1); t.Off+t.N < len(t.Blk.Bytes) && !t.Blk.Shared() {
			b = f.storeTail(t, b)
		}
	}
	for len(b) > 0 {
		var s sim.Span
		s, b = f.Spares.Copy(b)
		f.spans.Push(s)
	}
}

// storeTail copies what fits of b into the free bytes after t, the
// newest span, and returns the rest. A block something else references
// must not be stored into: SpanFault reports a store that was.
func (f *FIFO) storeTail(t *sim.Span, b []byte) []byte {
	if t.Blk.Shared() {
		f.sharedStores++
	}
	m := copy(t.Blk.Bytes[t.Off+t.N:], b)
	t.N += m
	return b[m:]
}

// Share appends data, a window of blk, by reference: the queue takes a
// reference to blk and copies nothing.
func (f *FIFO) Share(blk *sim.Block, data []byte) {
	if len(data) == 0 {
		return
	}
	blk.Ref()
	f.spans.Push(sim.SpanOf(blk, data))
	f.n += len(data)
}

// Take removes the oldest n bytes (0 < n <= Len) and hands them over by
// reference: data and blk, the block it is a window of, with one
// reference taken for the caller. Bytes that lie in one block are a
// span of the queue's own; bytes across blocks are copied into one
// block drawn from Spares, at least a FIFOBlock's size.
func (f *FIFO) Take(n int) (data []byte, blk *sim.Block) {
	if s := f.spans.Front(); s.N >= n {
		blk, data = s.Blk, s.Blk.Bytes[s.Off:s.Off+n]
		blk.Ref()
	} else {
		blk = f.Spares.Get(max(n, f.Spares.bySize[0].size))
		data = blk.Bytes[:f.CopyOut(blk.Bytes[:n], 0)]
	}
	f.Drop(n)
	return data, blk
}

// Spans appends to dst the queued bytes [off, off+n) as spans, a
// reference to each block taken for the caller, and returns dst.
func (f *FIFO) Spans(dst []sim.Span, off, n int) []sim.Span {
	for i := 0; n > 0 && i < f.spans.Len(); i++ {
		s := *f.spans.At(i)
		if off >= s.N {
			off -= s.N
			continue
		}
		s.Off, s.N = s.Off+off, min(s.N-off, n)
		off, n = 0, n-s.N
		s.Blk.Ref()
		dst = append(dst, s)
	}
	return dst
}

// CopyOut copies queued bytes into dst, starting off bytes behind the
// oldest, and returns how many it copied: len(dst) or what is queued
// from off on, whichever is less. The bytes stay queued.
func (f *FIFO) CopyOut(dst []byte, off int) int {
	n := 0
	for i := 0; n < len(dst) && i < f.spans.Len(); i++ {
		b := f.spans.At(i).Bytes()
		if off >= len(b) {
			off -= len(b)
			continue
		}
		n += copy(dst[n:], b[off:])
		off = 0
	}
	return n
}

// Read moves the oldest bytes into dst, as many as fit, and returns how
// many: CopyOut from the front, then Drop.
func (f *FIFO) Read(dst []byte) int {
	n := f.CopyOut(dst, 0)
	f.Drop(n)
	return n
}

// Drop discards the oldest n bytes, letting go of each block it empties.
func (f *FIFO) Drop(n int) {
	if n < 0 || n > f.n {
		panic("kernel: FIFO.Drop out of range")
	}
	f.n -= n
	for n > 0 {
		s := f.spans.Front()
		if n < s.N {
			s.Off, s.N = s.Off+n, s.N-n
			return
		}
		n -= s.N
		f.Spares.Drop(f.spans.Pop().Blk)
	}
}

// SpanFault says what makes a span the queue holds no span it may keep
// (sim.Span.Fault), or that Push stored into a shared block, or returns
// "" for neither.
func (f *FIFO) SpanFault() string {
	if f.sharedStores > 0 {
		return "stored into a shared block"
	}
	for i := 0; i < f.spans.Len(); i++ {
		if why := f.spans.At(i).Fault(); why != "" {
			return why
		}
	}
	return ""
}

// DigestSpans folds in what SpanFault reads but the blocks' counts.
func (f *FIFO) DigestSpans(d *Digest) {
	d.Int(int64(f.sharedStores))
	for i := 0; i < f.spans.Len(); i++ {
		s := f.spans.At(i)
		Ptr(d, s.Blk)
		d.Int(int64(s.Off))
		d.Int(int64(s.N))
	}
}

// Spares is a machine's list of the blocks whose last reference one of
// its holders let go of — a cache buffer, a platter entry, a send queue
// or a packet — uncleared, for the next holder that overwrites what it
// draws, as 4.3BSD's mbuf free list serves every protocol of a machine
// from one pool. The bytes stay on the machine until Rest clears them.
// Blocks are kept by size, so a machine whose cache blocks are not
// FIFOBlock bytes keeps two lists.
type Spares struct {
	bySize []spareList // the first holds the size Copy draws
}

type spareList struct {
	size int
	blks []*sim.Block
}

// newSpares returns a list whose Copy draws copySize-byte blocks, with
// room for n of them and for one other size before it grows.
func newSpares(copySize, n int) Spares {
	return Spares{bySize: append(make([]spareList, 0, 2),
		spareList{size: copySize, blks: make([]*sim.Block, 0, n)})}
}

// Spares returns the machine's spare blocks, for its cache and platters
// and for the send queues and packets of its endpoints.
func (k *Kernel) Spares() *Spares { return &k.spares }

// FIFOBlock is the size of the blocks a machine's FIFOs and packets draw
// to copy bytes into (Copy): one segment's worth.
const FIFOBlock = 8 << 10

// list returns the list of size-byte blocks, making it if need be.
func (s *Spares) list(size int) *spareList {
	for i := range s.bySize {
		if s.bySize[i].size == size {
			return &s.bySize[i]
		}
	}
	s.bySize = append(s.bySize, spareList{size: size})
	return &s.bySize[len(s.bySize)-1]
}

// Get returns a size-byte block with one reference: the newest spare of
// that size, if there is one, or a zeroed one from sim's recycler. Its
// bytes are whatever the last holder left.
func (s *Spares) Get(size int) *sim.Block {
	l := s.list(size)
	top := len(l.blks) - 1
	if top < 0 {
		return sim.NewBlock(size)
	}
	blk := l.blks[top]
	l.blks[top], l.blks = nil, l.blks[:top]
	blk.Ref()
	return blk
}

// Drop drops a reference to blk (nil drops none); the last one keeps
// blk for Get.
func (s *Spares) Drop(blk *sim.Block) {
	if blk.Drop() {
		l := s.list(len(blk.Bytes))
		l.blks = append(l.blks, blk)
	}
}

// Copy copies the first bytes of b, as many as one block holds, into a
// block drawn from s, FIFOBlock bytes on a kernel's, and returns them as
// a span and the rest of b.
func (s *Spares) Copy(b []byte) (sim.Span, []byte) {
	blk := s.Get(s.bySize[0].size)
	m := copy(blk.Bytes, b)
	return sim.Span{Blk: blk, N: m}, b[m:]
}

// Rest clears every spare and rests it in sim's recycler, at the end of
// the machine's life.
func (s *Spares) Rest() {
	for i := range s.bySize {
		l := &s.bySize[i]
		for _, blk := range l.blks {
			blk.Rest()
		}
		clear(l.blks)
		l.blks = l.blks[:0]
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

// Grow sizes an empty queue's backing array for n values, so that its
// owner can size it at construction rather than on the first busy path.
// The array is a table of sim's recycler.
func (q *Queue[T]) Grow(n int) { q.items = sim.NewTable[T](n)[:0] }

// Rest empties the queue and gives its backing array back to sim's
// recycler if it is still the n-value one Grow drew: an array the queue
// outgrew is left to the collector, since no Grow would draw it.
func (q *Queue[T]) Rest(n int) {
	if cap(q.items) == n {
		sim.RestTable(q.items[:n])
	}
	*q = Queue[T]{}
}

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

// At returns the i-th oldest value in place, until the next Push or Pop.
func (q *Queue[T]) At(i int) *T { return &q.items[q.head+i] }

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
// the splice watermarks. A write that comes with the block its bytes
// are a window of is admitted by reference (FIFO.Share), any other by
// copy (FIFO.Push). The endpoint consumes the FIFO from the front
// (CopyOut or Spans, then Drop) and calls Admit whenever it has made
// room.
type WriteQueue struct {
	Cap     int
	FIFO    // the admitted bytes
	waiting Queue[queuedWrite]
}

type queuedWrite struct {
	data []byte     // what is not admitted yet; the writer's own bytes, on loan
	blk  *sim.Block // the block data is a window of, or nil
	done func(error)
}

// push admits data, a window of blk or of no block (nil).
func (q *WriteQueue) push(data []byte, blk *sim.Block) {
	if blk != nil {
		q.Share(blk, data)
	} else {
		q.Push(data)
	}
}

// Queue accepts a write behind the earlier ones; blk, if not nil, is the
// block data is a window of, which the FIFO then shares. One that fits
// whole with nobody queued ahead is admitted and done(nil) fires at
// once, as the next Admit would have had it. Any other write waits, and
// the queue borrows data rather than copying it: the writer leaves the
// bytes alone until done fires (a splice keeps the source buffer busy
// until its write completes; a process blocked in AwaitWrite is asleep
// on them). done fires exactly once: with nil from Queue, Admit or Flush
// once the last byte is admitted, or with Abort's error.
func (q *WriteQueue) Queue(data []byte, blk *sim.Block, done func(error)) {
	if q.Writable() && len(data) <= q.Cap-q.Len() {
		q.push(data, blk)
		done(nil)
		return
	}
	q.waiting.Push(queuedWrite{data: data, blk: blk, done: done})
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
		q.push(w.data[:n], w.blk)
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
		q.push(w.data, w.blk)
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
// (write is its SpliceWrite, handed no block): it awaits a completion callback from
// process context, sleeping until done has fired, and returns len(b) or
// done's error. A context that cannot sleep does not wait — the write
// finishes on its own and counts as accepted. The caller then has b back
// before done has fired, so a caller that cannot sleep must not hand
// AwaitWrite a write that lends b (a WriteQueue's): Conn and Pipe serve
// such a context with TryWrite, and a socket has copied b into its
// packet when write returns. A sleeping caller is safe: the sleep, at
// PSOCK, is not interruptible, so it ends only once done has fired (were
// it to fail all the same, its error is returned, the write left running).
func AwaitWrite(ctx Ctx, b []byte, write func(data []byte, blk *sim.Block, done func(error))) (int, error) {
	var a *awaiter
	pc, inProc := ctx.(procCtx)
	if inProc && pc.p.aw != nil {
		a, pc.p.aw = pc.p.aw, nil
		a.fired, a.err = false, nil
	} else {
		a = &awaiter{k: ctx.Kern()}
		a.done = a.complete
	}
	write(b, nil, a.done)
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
