package stream

import (
	"cmp"
	"fmt"
	"slices"

	"kdp/internal/kernel"
	"kdp/internal/trace"
)

// Protocol parameters. The RTO starts well above the worst-case link
// queueing delay seen at full fan-out (so loss-free runs never
// retransmit spuriously) and backs off exponentially, as in TCP.
const (
	// MaxSeg is the maximum payload per segment.
	MaxSeg = 8192
	// sndCap bounds the unacknowledged send buffer per connection.
	sndCap = 64 << 10
	// rcvCap is the receive buffer capacity each side advertises.
	rcvCap = 32 << 10
	// initialRTO / maxRTO are retransmission timeouts in clock ticks.
	initialRTO = 50
	maxRTO     = 400
	// maxRetries bounds consecutive retransmissions of one segment
	// before the connection is declared dead.
	maxRetries = 12
	// reasmLimit bounds how far past rcvNxt an out-of-order segment may
	// be stashed for reassembly.
	reasmLimit = 2 * rcvCap
)

type connState int

const (
	stateSynSent connState = iota
	stateEstablished
	stateClosed
)

// Conn is one reliable stream connection. All protocol processing runs
// at interrupt level (segments arrive via the transport's socket
// handler, retransmissions fire from the callout list); process-context
// entry points are the FileOps methods and Close. It implements
// kernel.FileOps plus the splice Source and Sink interfaces, so a file
// can be spliced straight onto a connection.
type Conn struct {
	t      *Transport
	remote int
	id     uint32
	label  string
	state  connState

	// Sender. snd's FIFO holds bytes [sndUna, sndUna+snd.Len()), with
	// the writes it has no room for yet queued in snd; sndNxt is the
	// next offset to transmit; peerWnd is the receiver's most recent
	// advertised credit. rtx is the zero handle while no retransmission
	// callout is pending.
	snd      kernel.WriteQueue
	sndUna   int64
	sndNxt   int64
	peerWnd  int64
	finAt    int64 // FIN sequence offset; -1 until Close
	finAcked bool
	rtx      kernel.Callout
	rtxFn    func() // rtxFire, bound once
	rtoTicks int
	retries  int64
	probes   int64 // consecutive zero-window probes unanswered by credit
	retx     int64 // total retransmitted segments (stable under GOMAXPROCS)
	stalled  bool
	failed   error

	// Receiver. rcv holds in-order bytes awaiting the consumer;
	// reasm holds out-of-order segments in start-offset order; advWnd
	// is the window last advertised to the peer and rcvAdv its right
	// edge (rcvNxt+advWnd at that send); delack is set while an ACK of
	// in-order data is owed and the connection waits on its transport's
	// fast timeout.
	rcvNxt    int64
	rcv       kernel.FIFO
	reasm     []reasmSeg
	advWnd    int64
	rcvAdv    int64
	delack    bool
	remoteFin int64 // FIN offset announced by the peer; -1 until seen
	rcvClosed bool

	rd kernel.ParkedRead // parked splice read

	// Sleep channels (one per wait reason, so wakeups are targeted).
	connW byte // Connect waiting for SYNACK
	rdW   byte // blocked readers
	clW   byte // Close waiting for the FIN acknowledgement

	pollQ kernel.PollQueue

	ckRcvNxt int64 // high-water mark for the reordering invariant
}

func newConn(t *Transport, remote int, id uint32, st connState) *Conn {
	c := &Conn{
		t:         t,
		remote:    remote,
		id:        id,
		label:     fmt.Sprintf("%d->%d#%d", t.port, remote, id),
		state:     st,
		snd:       kernel.WriteQueue{Cap: sndCap},
		finAt:     -1,
		remoteFin: -1,
		rtoTicks:  initialRTO,
		advWnd:    rcvCap,
		rcvAdv:    rcvCap,
	}
	c.rtxFn = c.rtxFire
	t.live = append(t.live, c)
	return c
}

// RemotePort returns the peer's socket port.
func (c *Conn) RemotePort() int { return c.remote }

// Retransmits returns the number of segments this side retransmitted.
func (c *Conn) Retransmits() int64 { return c.retx }

// Err returns the terminal error, if the connection failed.
func (c *Conn) Err() error { return c.failed }

func (c *Conn) key() uint64 { return connKey(c.remote, c.id) }

func (c *Conn) freeWnd() int64 {
	if f := int64(rcvCap - c.rcv.Len()); f > 0 {
		return f
	}
	return 0
}

// dataEnd is the offset just past the last byte accepted for sending.
func (c *Conn) dataEnd() int64 { return c.sndUna + int64(c.snd.Len()) }

// seqEnd is the last offset the peer must acknowledge: dataEnd, plus
// one for the FIN once Close has queued it.
func (c *Conn) seqEnd() int64 {
	if c.finAt >= 0 {
		return c.finAt + 1
	}
	return c.dataEnd()
}

// ---- sending ----

// sendSeg emits one segment toward the peer, piggybacking the current
// cumulative ack and receive window, which settles any delayed ACK. Its
// payload is the n bytes of the send buffer from off on, copied straight
// into the packet.
func (c *Conn) sendSeg(typ byte, seq int64, off, n int) {
	c.advWnd = c.freeWnd()
	c.rcvAdv = c.rcvNxt + c.advWnd
	if c.delack {
		c.t.dropDelack(c)
	}
	seg := segment{
		typ:    typ,
		connID: c.id,
		seq:    seq,
		ack:    c.rcvNxt,
		wnd:    c.advWnd,
	}
	pkt := seg.encode(c.t.sock.PacketBuf(hdrBytes + n))
	c.snd.CopyOut(pkt[hdrBytes:], off)
	c.t.sock.SendTo(c.remote, pkt, nil)
}

// sendCtl emits a segment that carries no payload.
func (c *Conn) sendCtl(typ byte, seq int64) { c.sendSeg(typ, seq, 0, 0) }

// pump transmits as much buffered data as the peer's window allows,
// then the FIN once all data is out. Emits stream.stall (once per
// episode) when data is ready but the window is closed.
func (c *Conn) pump() {
	if c.state != stateEstablished {
		return
	}
	for c.sndNxt < c.dataEnd() {
		inflight := c.sndNxt - c.sndUna
		if inflight >= c.peerWnd {
			if !c.stalled {
				c.stalled = true
				c.t.k.TraceEmit(trace.KindStreamStall, 0,
					c.dataEnd()-c.sndNxt, inflight, c.label)
			}
			break
		}
		n := c.dataEnd() - c.sndNxt
		if n > MaxSeg {
			n = MaxSeg
		}
		if w := c.peerWnd - inflight; n > w {
			n = w
		}
		c.sendSeg(segDATA, c.sndNxt, int(inflight), int(n))
		c.sndNxt += n
		c.stalled = false
	}
	// The FIN consumes one offset and, like TCP's, ignores the window.
	if c.finAt >= 0 && c.sndNxt == c.finAt {
		c.sendCtl(segFIN, c.finAt)
		c.sndNxt = c.finAt + 1
	}
	c.armRtx()
}

// armRtx keeps the retransmission callout pending whenever the peer
// still owes an acknowledgement — including when nothing is in flight
// because the window is closed, where the timer doubles as the
// zero-window probe (a lost window update would otherwise deadlock the
// connection).
func (c *Conn) armRtx() {
	if c.rtx != (kernel.Callout{}) || c.state == stateClosed {
		return
	}
	if c.state == stateEstablished && c.sndUna >= c.seqEnd() {
		return
	}
	c.rtx = c.t.k.Timeout(c.rtxFn, c.rtoTicks)
}

// rtxFire retransmits the oldest unacknowledged segment with
// exponential backoff. Zero-window probes (window closed, nothing
// lost) are counted separately from loss retries, mirroring TCP's
// persist timer: a receiver may legitimately stay full across many
// probe intervals, so a probe that draws an acknowledgement does not
// tick the loss budget — but a peer that never reopens its window
// after maxRetries consecutive probes is declared dead, the way the
// BSD persist timer eventually gives up on a peer that acknowledges
// probes while advertising zero forever.
func (c *Conn) rtxFire() {
	c.rtx = kernel.Callout{}
	if c.state == stateClosed {
		return
	}
	probing := c.state == stateEstablished && c.peerWnd == 0
	if probing {
		c.probes++
		if c.probes > maxRetries {
			c.fail(kernel.ErrTimedOut)
			return
		}
	} else {
		c.retries++
		if c.retries > maxRetries {
			c.fail(kernel.ErrTimedOut)
			return
		}
	}
	c.retx++
	switch {
	case c.state == stateSynSent:
		c.t.k.TraceEmit(trace.KindStreamRetx, 0, 0, c.retries, c.label)
		c.sendCtl(segSYN, 0)
	case c.sndUna < c.dataEnd():
		n := c.dataEnd() - c.sndUna
		if n > MaxSeg {
			n = MaxSeg
		}
		c.t.k.TraceEmit(trace.KindStreamRetx, 0, c.sndUna, c.retries, c.label)
		c.sendSeg(segDATA, c.sndUna, 0, int(n))
	case c.finAt >= 0 && c.sndUna == c.finAt:
		c.t.k.TraceEmit(trace.KindStreamRetx, 0, c.finAt, c.retries, c.label)
		c.sendCtl(segFIN, c.finAt)
	default:
		return // fully acknowledged in the meantime
	}
	if c.rtoTicks *= 2; c.rtoTicks > maxRTO {
		c.rtoTicks = maxRTO
	}
	c.armRtx()
}

func (c *Conn) stopRtx() {
	c.t.k.Untimeout(c.rtx)
	c.rtx = kernel.Callout{}
}

// ---- segment input (interrupt level) ----

// handleSegment is the protocol input routine, called from the
// transport demultiplexer at interrupt level.
func (c *Conn) handleSegment(seg segment) {
	if c.state == stateClosed {
		return
	}
	if c.state == stateSynSent {
		if seg.typ != segSYNACK {
			return
		}
		c.state = stateEstablished
		c.peerWnd = seg.wnd
		c.stopRtx()
		c.retries = 0
		c.rtoTicks = initialRTO
		c.t.k.Wakeup(&c.connW)
		c.pollQ.Notify(kernel.PollOut) // now writable
		return
	}

	// Acknowledgement and window processing (every segment carries
	// both).
	if seg.ack >= c.sndUna && seg.ack <= c.seqEnd() {
		c.peerWnd = seg.wnd
		if seg.wnd > 0 {
			c.probes = 0 // the window reopened; the peer is alive
		}
		if seg.ack > c.sndUna {
			c.t.k.TraceEmit(trace.KindStreamAck, 0, seg.ack, seg.wnd, c.label)
			acked := seg.ack - c.sndUna
			if db := int64(c.snd.Len()); acked > db {
				acked = db // the FIN's offset carries no buffer bytes
			}
			c.snd.Drop(int(acked))
			c.sndUna = seg.ack
			if c.sndNxt < c.sndUna {
				c.sndNxt = c.sndUna
			}
			c.retries = 0
			c.rtoTicks = initialRTO
			c.stopRtx()
			if c.finAt >= 0 && seg.ack > c.finAt && !c.finAcked {
				c.finAcked = true
				c.t.k.Wakeup(&c.clW)
			}
			c.snd.Admit()
			c.pollQ.Notify(kernel.PollOut) // acknowledged bytes opened send space
		}
		c.pump()
	}

	switch seg.typ {
	case segDATA:
		// In-order data waits for the fast timeout or a segment to carry
		// its ACK; anything else is answered now, duplicates included.
		if !c.acceptData(seg.seq, seg.payload) {
			c.sendCtl(segACK, 0)
		}
	case segFIN:
		if c.remoteFin < 0 {
			c.remoteFin = seg.seq
		}
		c.tryConsumeFin()
		c.sendCtl(segACK, 0)
	}
	c.maybeGhost()
}

// acceptData admits payload at offset seq and reports whether its ACK
// may be delayed. In-order data is accepted while receive space remains
// (one segment of overshoot is allowed, so a window probe never wedges
// at an exact boundary); out-of-order data is stashed for reassembly
// within a bounded horizon. As in 4.3BSD's tcp_input, only in-order data
// that finds the reassembly queue empty and completes no FIN queues a
// delayed ACK, before the reader is served, so a window update the
// drain sends carries it.
func (c *Conn) acceptData(seq int64, payload []byte) (delayed bool) {
	if len(payload) == 0 {
		return false
	}
	end := seq + int64(len(payload))
	switch {
	case end <= c.rcvNxt:
		return false // entirely duplicate
	case seq <= c.rcvNxt:
		if c.freeWnd() == 0 {
			return false // window closed: acknowledge only
		}
		delayed = len(c.reasm) == 0
		c.rcv.Push(payload[c.rcvNxt-seq:])
		c.rcvNxt = end
		c.drainReasm()
		c.tryConsumeFin()
		if delayed = delayed && !c.rcvClosed; delayed {
			c.t.queueDelack(c)
		}
		c.serveReader()
		return delayed
	case seq <= c.rcvNxt+reasmLimit:
		i, dup := slices.BinarySearchFunc(c.reasm, seq, func(s reasmSeg, off int64) int { return cmp.Compare(s.off, off) })
		if !dup {
			c.reasm = slices.Insert(c.reasm, i, reasmSeg{seq, append([]byte(nil), payload...)})
		}
	}
	return false
}

// reasmSeg is one stashed out-of-order segment.
type reasmSeg struct {
	off  int64
	data []byte
}

// drainReasm folds stashed out-of-order segments into the in-order
// buffer, lowest offset first, so reassembly is deterministic
// regardless of arrival interleaving.
func (c *Conn) drainReasm() {
	n := 0
	for ; n < len(c.reasm) && c.reasm[n].off <= c.rcvNxt; n++ {
		s := c.reasm[n]
		if end := s.off + int64(len(s.data)); end > c.rcvNxt {
			c.rcv.Push(s.data[c.rcvNxt-s.off:])
			c.rcvNxt = end
		}
	}
	c.reasm = append(c.reasm[:0], c.reasm[n:]...)
}

// tryConsumeFin advances over the peer's FIN once all data before it
// has been received; readers then see EOF after draining the buffer.
func (c *Conn) tryConsumeFin() {
	if c.rcvClosed || c.remoteFin < 0 || c.rcvNxt != c.remoteFin {
		return
	}
	c.rcvNxt = c.remoteFin + 1
	c.rcvClosed = true
	c.serveReader()
}

// readable reports that in-order bytes or EOF await the consumer.
func (c *Conn) readable() bool { return c.rcv.Len() > 0 || c.rcvClosed }

// inputReady reports that a read(2) would not block: readable, or the
// terminal error is waiting to be reported.
func (c *Conn) inputReady() bool { return c.readable() || c.failed != nil }

// serveReader hands buffered data (or EOF) to a parked splice read and
// wakes blocked readers.
func (c *Conn) serveReader() {
	c.rd.Serve(c.readable(), c.take)
	c.t.k.Wakeup(&c.rdW)
	events := kernel.PollIn
	if c.rcvClosed {
		events |= kernel.PollHup
	}
	c.pollQ.Notify(events)
}

// take removes up to max in-order bytes as a slice of their own: a
// splice read's deliver owns what it is handed.
func (c *Conn) take(max int) (data []byte, eof bool) {
	if n := min(c.rcv.Len(), max); n > 0 {
		data = make([]byte, n)
		c.rcv.CopyOut(data, 0)
	}
	return data, c.drained(len(data))
}

// drained drops the n bytes the consumer took, sends a window update
// when that moves the advertised right edge far enough to matter and
// reports end of stream. The rule is 4.3BSD tcp_output's: an advance of
// two segments or 35 % of the buffer, or any space after the window
// was closed.
func (c *Conn) drained(n int) (eof bool) {
	c.rcv.Drop(n)
	if c.state == stateEstablished && !c.rcvClosed {
		f := c.freeWnd()
		adv := c.rcvNxt + f - c.rcvAdv
		if adv >= 2*MaxSeg || 100*adv >= 35*rcvCap || (c.advWnd == 0 && f > 0) {
			c.sendCtl(segACK, 0)
		}
	}
	return c.rcvClosed && c.rcv.Len() == 0
}

// maybeGhost retires the connection once both directions are done: our
// FIN is acknowledged and the peer's FIN consumed. The transport keeps
// only the final ack for the key (see Transport.ghosts), so a
// retransmitted FIN from a slow peer still gets its answer without a
// TIME_WAIT timer.
func (c *Conn) maybeGhost() {
	if c.state != stateEstablished || !c.finAcked || !c.rcvClosed {
		return
	}
	c.retire()
	c.t.addGhost(c.key(), c.rcvNxt)
}

// retire closes the connection and forgets it: no timer, no owed ACK,
// no place in the transport's table or its live list.
func (c *Conn) retire() {
	c.state = stateClosed
	c.stopRtx()
	if c.delack {
		c.t.dropDelack(c)
	}
	delete(c.t.conns, c.key())
	if i := slices.Index(c.t.live, c); i >= 0 {
		c.t.live = slices.Delete(c.t.live, i, i+1)
	}
}

// fail tears the connection down on retry exhaustion, erroring every
// parked caller.
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.failed = err
	c.retire()
	c.snd.Abort(err)
	c.rd.Fail(err)
	c.t.k.Wakeup(&c.connW)
	c.t.k.Wakeup(&c.rdW)
	c.t.k.Wakeup(&c.clW)
	c.pollQ.Notify(kernel.PollIn | kernel.PollOut | kernel.PollErr)
}

// ---- kernel.FileOps ----

// Read implements kernel.FileOps: blocks for in-order stream bytes;
// zero-length return means the peer closed.
func (c *Conn) Read(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	if err := kernel.SleepUntil(ctx, &c.rdW, kernel.PSOCK+1, c.inputReady); err != nil {
		return 0, err
	}
	if c.rcv.Len() == 0 {
		return 0, c.failed // the terminal error, or nil at EOF
	}
	n := c.rcv.CopyOut(b, 0)
	c.drained(n)
	return n, nil
}

// Write implements kernel.FileOps: blocks until the bytes have been
// admitted to the send buffer (transport acknowledgement proceeds
// asynchronously). A nonblocking write admits only what the send
// buffer can take right now, returning the partial count, or
// ErrWouldBlock when not a single byte fits.
func (c *Conn) Write(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if c.finAt >= 0 || c.state != stateEstablished {
		return 0, kernel.ErrBadFD
	}
	if !ctx.CanSleep() {
		n, err := c.snd.TryWrite(b)
		if err == nil {
			c.pump()
		}
		return n, err
	}
	return kernel.AwaitWrite(ctx, b, c.SpliceWrite)
}

// Writev implements kernel.WritevOps by coalescing the whole iovec
// array into one send-buffer admission. Per-iovec writes would admit
// (and often segment) each iovec separately; one gathered admission
// lets pump cut MaxSeg-sized segments across iovec boundaries, so a
// vector of small buffers goes out in fewer, fuller segments.
func (c *Conn) Writev(ctx kernel.Ctx, iovs [][]byte, off int64) (int, error) {
	u := kernel.Uio{Iovs: iovs}
	return c.Write(ctx, u.Gather(), 0)
}

// ---- kernel.PollOps ----

// PollReady implements kernel.PollOps: readable when in-order bytes,
// EOF, or a terminal error await the reader; writable when the send
// buffer can admit at least one byte and nobody is queued ahead.
// PollErr/PollHup conditions are reported whether requested or not.
func (c *Conn) PollReady(events int) int {
	r := 0
	if c.failed != nil {
		r |= kernel.PollErr
	}
	if c.rcvClosed {
		r |= kernel.PollHup
	}
	if events&kernel.PollIn != 0 && c.inputReady() {
		r |= kernel.PollIn
	}
	if events&kernel.PollOut != 0 &&
		c.state == stateEstablished && c.failed == nil && c.finAt < 0 && c.snd.Writable() {
		r |= kernel.PollOut
	}
	return r
}

// PollQueue implements kernel.PollOps.
func (c *Conn) PollQueue() *kernel.PollQueue { return &c.pollQ }

// Close implements kernel.FileOps: queues the FIN after all buffered
// data and blocks until the peer acknowledges it (or the retry limit
// declares the peer dead, returning ErrTimedOut). The blocked process
// is what keeps the machine alive while retransmissions drain.
func (c *Conn) Close(ctx kernel.Ctx) error {
	if c.failed != nil {
		return c.failed
	}
	if c.finAt >= 0 || c.state == stateClosed {
		return nil
	}
	c.snd.Flush() // the FIN covers writes still waiting for room
	c.finAt = c.dataEnd()
	c.pump()
	settled := func() bool { return c.finAcked || c.failed != nil }
	if err := kernel.SleepUntil(ctx, &c.clW, kernel.PSOCK, settled); err != nil {
		return err
	}
	return c.failed
}

// ---- splice endpoints ----

// SpliceWrite implements the splice Sink interface: done fires once the
// chunk is admitted to the send buffer, so splice's write watermark
// composes with the transport window — a closed window holds bytes in
// the send buffer, the full send buffer parks admissions, and the
// parked admissions throttle the splice engine. data is borrowed until
// done fires.
func (c *Conn) SpliceWrite(data []byte, done func(error)) {
	if c.failed != nil {
		done(c.failed)
		return
	}
	if c.finAt >= 0 || c.state != stateEstablished {
		done(kernel.ErrBadFD)
		return
	}
	c.snd.Queue(data, done)
	c.snd.Admit()
	c.pump()
}

// SpliceRead implements the splice Source interface: in-order bytes are
// delivered immediately if buffered, otherwise on the arrival
// interrupt.
func (c *Conn) SpliceRead(max int, deliver func([]byte, bool, error)) {
	if c.failed != nil {
		deliver(nil, false, c.failed)
		return
	}
	c.rd.Read(max, deliver, c.readable(), c.take)
}

// CancelSpliceRead implements the splice Source interface.
func (c *Conn) CancelSpliceRead() bool { return c.rd.Cancel() }
