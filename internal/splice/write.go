package splice

import (
	"slices"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// ---- fileOut: what both ways of writing a file share ----

// fileOut is a destination file: its block table, built up front by the
// special allocating bmap (§5.2), and the asynchronous device write.
type fileOut struct {
	d     *desc
	file  FileLike
	cache *buf.Cache
	bsize int64
	off   int64    // destination byte offset, block aligned
	table []uint32 // physical block numbers from off's block on
	// fresh flags blocks freshly allocated by open that no write has yet
	// reached: they hold whatever their previous owner left. A partial
	// write into a fresh block must put zeros in the unwritten remainder
	// (nothing else ever will), while a partial write into a pre-existing
	// block must preserve it; and a transfer that ends short must not
	// leave a fresh block readable (scrub).
	fresh    []bool
	scrubbed int // blocks below this index have been seen by scrub
}

func newFileOut(d *desc, f FileLike, fd *kernel.FDesc) fileOut {
	c := f.BufCache()
	return fileOut{d: d, file: f, cache: c, bsize: int64(c.BlockSize()), off: fd.Offset()}
}

// open maps (allocating) exactly the blocks the transfer writes and
// sizes the file; blocks before off are left as they are, holes
// included.
func (o *fileOut) open(ctx kernel.Ctx, total int64) (err error) {
	first := o.off / o.bsize
	if o.table, o.fresh, err = o.file.SpliceMapWrite(ctx, first, first+(total+o.bsize-1)/o.bsize); err != nil {
		return err
	}
	o.file.Extend(ctx, o.off+total)
	return nil
}

// issue starts the asynchronous write of hdr to the transfer's block
// blk; n bytes of it are payload. The device transfer length depends on
// the destination block's history: a short write into a pre-existing
// block is a partial device write that preserves the block's tail, while
// a fresh block is written whole, so its on-disk tail is whatever the
// caller put after the payload (zeros) rather than what the freed block
// previously held — which would surface when a later write extends the
// file across old EOF. A mapped page's held buffer, valid throughout, is
// written whole too. tag is the splice.write event's first argument.
func (o *fileOut) issue(hdr *buf.Buf, blk int64, n int, tag int64) {
	d := o.d
	hdr.SpliceN = n
	if n < int(o.bsize) && !o.fresh[blk] && hdr.Flags&buf.BHeld == 0 {
		hdr.Bcount = n
	}
	hdr.SpliceLblk = blk
	hdr.SpliceDesc = d
	o.cache.PrepareWrite(hdr, d.onWriteDone)
	d.k.TraceEmit(trace.KindSpliceWrite, 0, tag, int64(d.pendingWrites), "")
	o.file.Dev().Strategy(hdr)
}

// wrote notes a completed write: a block that reached the platter is no
// longer fresh. A failed write leaves it fresh, for scrub.
func (o *fileOut) wrote(hdr *buf.Buf) {
	if hdr.Flags&buf.BError == 0 {
		o.fresh[hdr.SpliceLblk] = false
	}
}

// scrub is asked when everything the transfer issued has completed: it
// zero-writes the blocks still fresh — never reached because the
// transfer was interrupted, failed or ran out of source, or reached by a
// write that failed — so the destination, sized up front, can never be
// read as its blocks' previous owner. Zeroing rather than trimming the
// size and freeing the blocks because it needs no process context: the
// writes are ordinary asynchronous device writes, a memory-less header
// each over the cache's zero block, issued up to the write watermark at
// a time and drained through the same completion handler as payload,
// so a FASYNC transfer finishing at interrupt level is covered by the
// mechanism a blocked caller is. Each fresh block is tried once.
func (o *fileOut) scrub() {
	d := o.d
	for ; o.scrubbed < len(o.fresh) && int(d.pendingWrites) < d.opts.WriteWatermark; o.scrubbed++ {
		if !o.fresh[o.scrubbed] {
			continue
		}
		blk := int64(o.scrubbed)
		hdr := o.cache.AllocHeader(o.file.Dev(), int64(o.table[blk]))
		o.cache.Share(hdr, nil)
		d.pendingWrites++
		d.gen.Bump()
		o.issue(hdr, blk, 0, blk)
	}
}

// ---- alias: file blocks written from the read-side buffers ----

// alias writes each source block through a memory-less buffer header
// whose data pointer aliases the read-side buffer (§5.4).
type alias struct {
	fileOut
	holdsNothing
	// live tracks in-flight write headers, in issue order, for the
	// invariant checker.
	live []*buf.Buf
}

func (a *alias) writeBlock(b *buf.Buf, data []byte) {
	d, lblk, n := a.d, b.SpliceLblk, len(data)
	hdr := a.cache.AllocHeader(a.file.Dev(), int64(a.table[lblk]))
	if d.opts.NoShare {
		// Ablation: allocate real memory and copy between cache
		// buffers, charging the kernel bcopy.
		hdr.Data = make([]byte, a.bsize)
		copy(hdr.Data, data)
		d.k.StealCPU(d.k.Config().BcopyCost(n))
		d.stats.Copied++
	} else {
		// The paper's path: "the data pointer in the new buffer header
		// is ... altered to point to the same address the data pointer
		// in the read-side buffer does, so both buffers share a common
		// data area. We thus avoid copying between cache buffers." The
		// read buffer carries zeros past EOF, so a whole-block write of
		// a short final block zeroes the destination's tail.
		a.cache.Share(hdr, b)
		d.stats.Shared++
	}
	hdr.SplicePeer = b
	a.live = append(a.live, hdr)
	d.gen.Bump()
	if pg := a.cache.Peek(hdr.Dev, hdr.Blkno); pg != nil && pg.Flags&buf.BHeld != 0 {
		// A mapped page is the destination block's buffer, which open
		// left in place: the write goes through it too, so the mapping
		// and read() see what the platter gets (docs/VM.md §5).
		copy(a.cache.Store(pg, false), data)
		d.k.StealCPU(d.k.Config().BcopyCost(n))
	}
	a.issue(hdr, lblk, n, lblk)
}

// release frees the write header and the read-side buffer it aliased.
func (a *alias) release(hdr *buf.Buf) {
	a.wrote(hdr)
	if i := slices.Index(a.live, hdr); i >= 0 {
		a.live = slices.Delete(a.live, i, i+1) // written, the one caller, bumps
	}
	if hdr.SplicePeer != nil {
		releaseBuf(a.d.k, a.cache, hdr.SplicePeer)
	}
	a.cache.ReleaseHeader(hdr)
}

// check: splice-hdr-alias.
func (a *alias) check() error {
	for _, hdr := range a.live {
		if hdr.Flags&buf.BNoMem == 0 {
			return kernel.Violation("splice-hdr-alias", "write header without B_NOMEM: %s", hdr)
		}
		peer := hdr.SplicePeer
		if peer == nil {
			return kernel.Violation("splice-hdr-alias", "write header with no read-side peer: %s", hdr)
		}
		if !a.d.opts.NoShare {
			if len(hdr.Data) == 0 || len(peer.Data) == 0 || &hdr.Data[0] != &peer.Data[0] {
				return kernel.Violation("splice-hdr-alias", "write header does not alias its peer's data area: %s", hdr)
			}
		}
		if hdr.SpliceDesc != any(a.d) {
			return kernel.Violation("splice-hdr-alias", "write header bound to foreign descriptor: %s", hdr)
		}
	}
	return nil
}

// ---- sink: a Sink fed blocks or chunks ----

// sink hands data to a Sink (device, socket, pipe). Blocks arrive in
// I/O-completion order — a cache hit or a hole returns instantly while
// an earlier block is still on the disk queue — but a Sink is a byte
// stream, so they park until every earlier block has been handed over;
// a parked block still counts as a pending write, which keeps the
// watermarks honest. Chunks from a Source arrive in order and go
// through the callout list, as the read handler of §5.3 sends blocks.
type sink struct {
	holdsNothing
	d     *desc
	dst   Sink
	cache *buf.Cache // where block buffers return; nil when fed chunks

	parked map[int64]parkedBlock
	next   int64 // next logical block to hand over

	// Chunks on the callout list, oldest first: callouts queued for the
	// same tick fire in the order they were queued, so one handler, bound
	// once, takes them from the front.
	chunks  kernel.Queue[chunk]
	onChunk func() // sendChunk

	spare *sending // completed write records, for send
}

// chunk is bytes a Source delivered: data, a window of blk (nil for
// bytes of no block), whose reference the splice holds.
type chunk struct {
	data []byte
	blk  *sim.Block
}

type parkedBlock struct {
	b    *buf.Buf
	data []byte
}

// sending is one write the Sink has not completed yet: the completion
// callback it was handed and what that callback has to report. A sink
// may complete its writes in any order, so each has a record of its own;
// a completed one is reused by a later send.
type sending struct {
	s    *sink
	b    *buf.Buf   // the buffer behind the data, if any
	blk  *sim.Block // a Source's block behind the data, if any: the splice's reference
	n    int
	done func(error) // completed, bound once
	next *sending    // on s.spare
}

func (w *sending) completed(err error) {
	s, b, n := w.s, w.b, w.n
	s.d.k.Spares().Drop(w.blk)
	w.b, w.blk = nil, nil
	w.next, s.spare = s.spare, w
	s.d.written(b, n, err)
}

func (s *sink) open(kernel.Ctx, int64) error { return nil }

func (s *sink) ready() bool { return true }

func (s *sink) writeBlock(b *buf.Buf, data []byte) {
	if b.SpliceLblk == s.next && len(s.parked) == 0 {
		s.next++
		s.handOver(b, data) // in order: the map is for the others
		return
	}
	if s.parked == nil {
		s.parked = make(map[int64]parkedBlock)
	}
	s.parked[b.SpliceLblk] = parkedBlock{b, data}
	for pb, ok := s.parked[s.next]; ok; pb, ok = s.parked[s.next] {
		delete(s.parked, s.next)
		s.next++
		s.handOver(pb.b, pb.data)
	}
}

// handOver sends block b, the next in order, to the Sink. The sink sees
// a slice of the read-side buffer's data area; the buffer is released
// when the sink signals completion.
func (s *sink) handOver(b *buf.Buf, data []byte) {
	s.d.stats.Shared++
	s.send(b, nil, data, b.SpliceLblk)
}

func (s *sink) writeChunk(data []byte, blk *sim.Block) {
	if s.onChunk == nil {
		s.onChunk = s.sendChunk
	}
	s.chunks.Push(chunk{data, blk})
	s.d.callout(s.onChunk)
}

// sendChunk runs from the callout list with the oldest queued chunk.
func (s *sink) sendChunk() {
	d, c := s.d, s.chunks.Pop()
	d.handlerCharge()
	if d.stopped {
		d.k.Spares().Drop(c.blk)
		d.settle() // the chunk is dropped
		return
	}
	d.pendingWrites++
	d.gen.Bump()
	s.send(nil, c.blk, c.data, int64(len(c.data)))
}

// send passes data to the Sink; b, if any, is the buffer behind it, and
// blk, if any, a Source's block, whose reference the splice drops when
// the Sink's done fires.
func (s *sink) send(b *buf.Buf, blk *sim.Block, data []byte, tag int64) {
	d := s.d
	d.k.TraceEmit(trace.KindSpliceWrite, 0, tag, int64(d.pendingWrites), "")
	w := s.spare
	if w == nil {
		w = &sending{s: s}
		w.done = w.completed
	} else {
		s.spare = w.next
	}
	w.b, w.blk, w.n = b, blk, len(data)
	if b != nil {
		blk = b.Lend()
	}
	s.dst.SpliceWrite(data, blk, w.done)
}

func (s *sink) scrub() {} // a Sink is not sized up front

func (s *sink) release(b *buf.Buf) {
	if b != nil {
		releaseBuf(s.d.k, s.cache, b)
	}
}

// abandon discards parked blocks, in block order, once the transfer has
// failed: nothing will deliver them (their predecessors are dropped at
// hand-off), and each still holds a cache buffer and a pending-write
// count. A transfer that was merely interrupted still delivers them as
// its reads drain.
func (s *sink) abandon() {
	if s.d.err == nil {
		return
	}
	for lblk := s.next; len(s.parked) > 0; lblk++ {
		if pb, ok := s.parked[lblk]; ok {
			s.release(pb.b)
			delete(s.parked, lblk)
			s.d.pendingWrites--
			s.d.gen.Bump()
		}
	}
}

func (s *sink) drained() bool { return s.chunks.Len() == 0 }

// ---- stage: file blocks filled from a Source's chunks ----

// stage marshals arbitrarily sized chunks into destination cache
// buffers — the one place a copy is unavoidable, since network data
// arrives in packets that must become aligned blocks — and writes each
// block as it fills with the same asynchronous B_CALL machinery. An
// extension beyond the paper's prototype, which supported file→file,
// socket→socket and framebuffer→socket.
type stage struct {
	fileOut
	holdsNothing
	hdr    *buf.Buf // destination block buffer being filled
	fill   int      // bytes staged into hdr
	staged int64    // bytes staged so far
	stash  []byte   // bytes awaiting a staging buffer
}

func (s *stage) ready() bool { return len(s.stash) == 0 }

// writeChunk stages a Source's chunk (stageBytes) and drops the
// splice's reference to its block: the bytes are copied or stashed.
func (s *stage) writeChunk(data []byte, blk *sim.Block) {
	s.stageBytes(data)
	s.d.k.Spares().Drop(blk)
}

// stageBytes stages incoming bytes at interrupt level, writing each
// block as it fills. On a momentarily unavailable buffer the remainder
// is stashed and retried from the callout list.
func (s *stage) stageBytes(data []byte) {
	d := s.d
	for len(data) > 0 && !d.stopped {
		if s.hdr == nil {
			hdr, wchan, err := s.cache.GetblkNB(d.k.IntrCtx(), s.file.Dev(), int64(s.table[s.staged/s.bsize]))
			if err != nil {
				// No buffer without sleeping: stash, and retry once
				// the buffer wanted, or any buffer, is released.
				s.stash = append(s.stash, data...)
				d.armRetry(wchan)
				return
			}
			s.hdr, s.fill, hdr.SpliceDesc = hdr, 0, d
		}
		// A block the stage starts on that holds nothing valid is
		// overwritten whole before it is written or read: staged bytes,
		// then zeros or a partial device write (flush).
		n := copy(s.cache.Store(s.hdr, s.fill == 0 && s.hdr.Flags&buf.BDone == 0)[s.fill:], data)
		d.k.StealCPU(d.k.Config().BcopyCost(n)) // mbuf → cache buffer
		s.fill += n
		s.staged += int64(n)
		data = data[n:]
		if int64(s.fill) == s.bsize || s.staged == d.total {
			s.flush()
		}
	}
	if d.stopped {
		d.settle() // nothing more will be staged
	}
}

// flush writes the current staging buffer. A short final block into a
// fresh destination block is zero-padded, its in-memory tail being stale
// recycled content; into a pre-existing block the device write is
// partial and the buffer must then not survive as a cached copy
// (release invalidates it), unless a mapped page holds it (issue).
func (s *stage) flush() {
	d, hdr, n := s.d, s.hdr, s.fill
	s.hdr = nil
	blk := (s.staged - 1) / s.bsize
	if s.fresh[blk] {
		clear(s.cache.Store(hdr, false)[n:])
	}
	d.pendingWrites++
	d.gen.Bump()
	d.stats.Copied++
	s.issue(hdr, blk, n, int64(n))
}

func (s *stage) release(hdr *buf.Buf) {
	s.wrote(hdr)
	if hdr.Bcount < int(s.bsize) {
		// Partial write into a pre-existing block: the buffer's
		// in-memory tail does not match the preserved on-disk tail.
		s.cache.SetFlags(hdr, buf.BInval)
	}
	releaseBuf(s.d.k, s.cache, hdr) // a staging buffer, or a scrub header
}

// resume re-feeds stashed bytes through the staging path.
func (s *stage) resume() {
	if data := s.stash; len(data) > 0 {
		s.stash = nil
		s.stageBytes(data)
	}
}

func (s *stage) abandon() {
	if s.hdr != nil {
		s.cache.Brelse(s.d.k.IntrCtx(), s.hdr)
		s.hdr = nil
	}
	s.stash = nil
}

// drained flushes the short block a source that hit EOF early left
// staged; everything received has then been issued unless some of it is
// still stashed.
func (s *stage) drained() bool {
	if s.hdr != nil {
		s.flush()
	}
	return len(s.stash) == 0
}
