// Package socket provides datagram (UDP-style) sockets over a simulated
// shared link, supporting the paper's socket-to-socket splices for the
// UDP transport protocol (§5.1).
//
// Sockets implement kernel.FileOps (read/write move whole datagrams,
// charging user copies at the syscall layer) and the splice Source and
// Sink interfaces structurally: a splice sink transmits each chunk as a
// datagram; a splice source delivers received datagrams as they arrive,
// entirely at interrupt level.
package socket

import (
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// NetParams describes the simulated link all sockets of one Net share.
type NetParams struct {
	// Name identifies the net in fault-site IDs ("net.<name>.drop" and
	// friends); machines with several nets give each a distinct name.
	// Empty defaults to "net".
	Name string
	// Bandwidth is the serialization rate in bytes per second (a
	// 10Mb/s Ethernet moves ~1.25MB/s).
	Bandwidth float64
	// Latency is the propagation delay from transmit-complete to
	// receive interrupt.
	Latency sim.Duration
	// PerPacketCost is the protocol-processing CPU charge per packet
	// on each side (UDP/IP input and output processing).
	PerPacketCost sim.Duration
	// RcvBufBytes bounds each socket's receive queue; datagrams
	// arriving beyond it are dropped, as UDP does.
	RcvBufBytes int
}

// Ethernet10 returns parameters for the era's 10Mb/s shared Ethernet.
func Ethernet10() NetParams {
	return NetParams{
		Bandwidth:     1.25e6,
		Latency:       600 * sim.Microsecond,
		PerPacketCost: 120 * sim.Microsecond,
		RcvBufBytes:   64 << 10,
	}
}

// Loopback returns parameters for fast in-machine delivery.
func Loopback() NetParams {
	return NetParams{
		Bandwidth:     16e6,
		Latency:       50 * sim.Microsecond,
		PerPacketCost: 60 * sim.Microsecond,
		RcvBufBytes:   64 << 10,
	}
}

type packet struct {
	data []byte
	from int
	eof  bool
}

type txRequest struct {
	pkt    packet
	dst    int
	onSent func(error)
}

// flight is a datagram in propagation toward dst. One the reorder fault
// holds back for a second propagation period is held, and dup then says
// whether to deliver it twice.
type flight struct {
	pkt       packet
	dst       int
	held, dup bool
}

// Net is a simulated network: a shared medium connecting every socket
// created on it. Transmissions serialize on the link FIFO.
type Net struct {
	k     *kernel.Kernel
	p     NetParams
	socks map[int]*Socket

	txq    kernel.Queue[txRequest]
	txBusy bool
	// free is the packet buffers nobody refers to any more, for PacketBuf,
	// in two lists as mbufs and clusters are: a segment's worth of payload
	// must not find the acknowledgements' buffers on top of its list, nor
	// an acknowledgement use up a payload-sized one.
	free [2][][]byte

	// The link serves one request at a time and every datagram
	// propagates for the same Latency (a reordered one twice), so
	// datagrams arrive in the order they set out: the request on the wire
	// and the queue of datagrams in propagation stand in for a closure
	// per event, with the two event handlers bound once.
	sending  txRequest
	flying   kernel.Queue[flight]
	onSent   func() // txDone
	onArrive func() // rxArrive

	rxCount                  int64
	sent, delivered, dropped int64

	siteDrop, siteDup, siteReorder kernel.FaultSite
}

// NewNet creates a network on machine k.
func NewNet(k *kernel.Kernel, p NetParams) *Net {
	if p.Bandwidth <= 0 {
		panic("socket: bandwidth must be positive")
	}
	if p.RcvBufBytes <= 0 {
		p.RcvBufBytes = 64 << 10
	}
	name := p.Name
	if name == "" {
		name = "net"
	}
	n := &Net{k: k, p: p, socks: make(map[int]*Socket),
		siteDrop:    "net." + name + ".drop",
		siteDup:     "net." + name + ".dup",
		siteReorder: "net." + name + ".reorder",
	}
	n.onSent, n.onArrive = n.txDone, n.rxArrive
	n.txq.Grow(netRecords)
	n.flying.Grow(netRecords)
	n.free[0] = make([][]byte, netRecords)
	slab := make([]byte, netRecords*smallPacket)
	for i := range n.free[0] {
		n.free[0][i] = slab[i*smallPacket : i*smallPacket : (i+1)*smallPacket]
	}
	return n
}

// netRecords sizes a net's link and propagation queues and its stock of
// small packet buffers at construction. It is measured on one stream
// connection moving a megabyte (stream's TestStreamTransferAllocBudget),
// which peaks at 4 queued datagrams, 3 in propagation and 4 small
// buffers, so that traffic reaches no new high-water mark after its
// warm-up; a queue reclaims its popped slots only once they are most of
// its array, hence the margin. Busier traffic, such as many connections
// at once, may still grow the queues and the stock past it.
const netRecords = 16

// DropSite returns the net's datagram-loss fault site ID.
func (n *Net) DropSite() kernel.FaultSite { return n.siteDrop }

// DupSite returns the net's datagram-duplication fault site ID.
func (n *Net) DupSite() kernel.FaultSite { return n.siteDup }

// ReorderSite returns the net's datagram-reorder fault site ID.
func (n *Net) ReorderSite() kernel.FaultSite { return n.siteReorder }

// Stats reports network counters: packets sent, delivered, dropped.
func (n *Net) Stats() (sent, delivered, dropped int64) {
	return n.sent, n.delivered, n.dropped
}

// transmit queues a packet for the shared link.
func (n *Net) transmit(req txRequest) {
	n.txq.Push(req)
	if !n.txBusy {
		n.txBusy = true
		n.k.Hold()
		n.txNext()
	}
}

func (n *Net) txNext() {
	if n.txq.Len() == 0 {
		n.txBusy = false
		n.k.Release()
		return
	}
	n.sending = n.txq.Pop()
	ser := sim.BytesAt(int64(len(n.sending.pkt.data)), n.p.Bandwidth)
	n.k.Engine().Schedule(ser, "net:tx", n.onSent)
}

// txDone fires when the link has serialized the request it was sending.
func (n *Net) txDone() {
	req := n.sending
	n.sending = txRequest{}
	n.sent++
	n.k.TraceEmit(trace.KindNetTx, 0, int64(len(req.pkt.data)), int64(req.dst), "")
	// Sender-side completion: the datagram is on the wire.
	n.k.Interrupt(func() {
		n.k.StealCPU(n.p.PerPacketCost)
		if req.onSent != nil {
			req.onSent(nil)
		}
	})
	// Propagation, then receive interrupt at the destination.
	n.flying.Push(flight{pkt: req.pkt, dst: req.dst})
	n.k.Engine().Schedule(n.p.Latency, "net:rx", n.onArrive)
	n.txNext()
}

// rxArrive is the receive interrupt of the datagram longest in
// propagation. One that was held back has been through the fault sites
// already.
func (n *Net) rxArrive() {
	f := n.flying.Pop()
	n.k.Interrupt(func() {
		n.k.StealCPU(n.p.PerPacketCost)
		if f.held {
			n.arrive(f.dst, f.pkt, f.dup)
		} else {
			n.deliver(f.dst, f.pkt)
		}
	})
	if f.held {
		n.k.Release()
	}
}

// deliver runs the receive-side fault sites — every non-EOF data
// datagram is one eligible occurrence, argument = its arrival ordinal —
// then hands the packet to the destination socket. Drop discards it,
// dup delivers it twice, reorder delays it one extra propagation period
// so a datagram in flight behind it overtakes it.
func (n *Net) deliver(port int, pkt packet) {
	dup := false
	if !pkt.eof && len(pkt.data) > 0 {
		fp := n.k.Faults()
		n.rxCount++
		ord := n.rxCount
		if fp.Hit(n.siteDrop, ord) {
			n.dropped++
			n.k.TraceEmit(trace.KindNetDrop, 0, int64(len(pkt.data)), int64(port), "")
			n.recycle(pkt.data)
			return
		}
		dup = fp.Hit(n.siteDup, ord)
		if fp.Hit(n.siteReorder, ord) {
			n.k.Hold()
			n.flying.Push(flight{pkt, port, true, dup})
			n.k.Engine().Schedule(n.p.Latency, "net:reorder", n.onArrive)
			return
		}
	}
	n.arrive(port, pkt, dup)
}

// arrive delivers pkt — twice under dup — and recycles its buffer after
// the last delivery, unless a reader's queue has taken the bytes (the
// read that empties it out recycles it then).
func (n *Net) arrive(port int, pkt packet, dup bool) {
	kept := n.deliverTo(port, pkt)
	if dup {
		n.k.StealCPU(n.p.PerPacketCost)
		if kept {
			// A queued datagram owns its buffer alone.
			pkt.data = append(n.packetBuf(len(pkt.data))[:0], pkt.data...)
		}
		kept = n.deliverTo(port, pkt) || kept
	}
	if !kept {
		n.recycle(pkt.data)
	}
}

// deliverTo hands pkt to the socket bound to port and reports whether
// that socket's receive queue now holds pkt.data (a handler has finished
// with the bytes when it returns).
func (n *Net) deliverTo(port int, pkt packet) (kept bool) {
	s, ok := n.socks[port]
	if !ok || s.closed {
		n.dropped++
		n.k.TraceEmit(trace.KindNetDrop, 0, int64(len(pkt.data)), int64(port), "")
		return false
	}
	if s.handler != nil {
		// Protocol input processing: the handler consumes the packet
		// immediately at interrupt level, so no receive queue (and no
		// receive-buffer bound) is involved.
		n.delivered++
		n.k.TraceEmit(trace.KindNetRx, 0, int64(len(pkt.data)), int64(port), "")
		s.handler(pkt.data, pkt.from, pkt.eof)
		return false
	}
	if s.rcvBytes+len(pkt.data) > n.p.RcvBufBytes {
		n.dropped++
		n.k.TraceEmit(trace.KindNetDrop, 0, int64(len(pkt.data)), int64(port), "")
		return false
	}
	n.delivered++
	n.k.TraceEmit(trace.KindNetRx, 0, int64(len(pkt.data)), int64(port), "")
	s.rcvBytes += len(pkt.data)
	s.rcvq.Push(pkt)
	s.serveWaiters()
	return true
}

// Socket is a datagram endpoint bound to a port on its Net.
type Socket struct {
	net    *Net
	port   int
	peer   int // connected destination port (for write/splice sink)
	closed bool

	rcvq     kernel.Queue[packet]
	rcvBytes int

	// handler, when set, receives every arriving packet at interrupt
	// level instead of the receive queue (see SetHandler).
	handler func(data []byte, from int, eof bool)

	rd kernel.ParkedRead

	pollQ kernel.PollQueue
}

// NewSocket binds a datagram socket to port.
func (n *Net) NewSocket(port int) (*Socket, error) {
	if _, taken := n.socks[port]; taken {
		return nil, kernel.ErrExist
	}
	s := &Socket{net: n, port: port, peer: -1}
	n.socks[port] = s
	return s, nil
}

// Connect sets the default destination port for writes. The peer port
// must already be bound on the Net: a datagram "connection" to a
// nonexistent port would silently blackhole every write, so the check
// happens here, where the caller can still handle it.
func (s *Socket) Connect(port int) error {
	if _, ok := s.net.socks[port]; !ok {
		return kernel.ErrConnRefused
	}
	s.peer = port
	return nil
}

// readable reports that a read would not block: a datagram or EOF.
func (s *Socket) readable() bool { return s.rcvq.Len() > 0 || s.closed }

// serveWaiters hands queued data to a pending splice read and wakes
// blocked readers. Runs at interrupt level.
func (s *Socket) serveWaiters() {
	s.rd.Serve(s.readable(), s.takeDatagram)
	s.net.k.Wakeup(s)
	events := kernel.PollIn
	if s.closed {
		events |= kernel.PollHup
	}
	s.pollQ.Notify(events)
}

// takeDatagram pops the next datagram (or its first max bytes; the rest
// of the datagram is discarded, as recvfrom does).
func (s *Socket) takeDatagram(max int) (data []byte, eof bool) {
	for s.rcvq.Len() > 0 {
		pkt := s.rcvq.Pop()
		s.rcvBytes -= len(pkt.data)
		if pkt.eof {
			return nil, true
		}
		d := pkt.data
		if max < len(d) {
			d = d[:max]
		}
		return d, false
	}
	return nil, s.closed
}

// SetHandler installs an interrupt-level input handler: every packet
// arriving for this socket is handed to fn directly — with the sending
// port, as protocol input routines need — instead of being queued for
// readers. A handler socket has no receive-buffer bound (the handler
// consumes each packet as it arrives). The stream transport uses this
// to demultiplex segments onto connections. Pass nil to restore queued
// delivery. data is lent for the call only — the net reuses the buffer
// once the handler has returned — so a handler copies what it keeps.
func (s *Socket) SetHandler(fn func(data []byte, from int, eof bool)) {
	s.handler = fn
}

// PacketBuf returns an n-byte buffer of unspecified content to build a
// datagram for SendTo in, off the net's free list when that has one.
func (s *Socket) PacketBuf(n int) []byte { return s.net.packetBuf(n) }

func (n *Net) packetBuf(size int) []byte {
	if size <= smallPacket {
		if free := n.free[0]; len(free) > 0 {
			top := len(free) - 1
			b := free[top]
			free[top], n.free[0] = nil, free[:top]
			return b[:size]
		}
		return make([]byte, size, smallPacket)
	}
	// The newest large buffer that is large enough: they differ in size
	// when a window cuts a segment short.
	free := n.free[1]
	for i := len(free) - 1; i >= 0; i-- {
		if b := free[i]; cap(b) >= size {
			top := len(free) - 1
			free[i], free[top], n.free[1] = free[top], nil, free[:top]
			return b[:size]
		}
	}
	return make([]byte, size)
}

// smallPacket is the capacity of every buffer on the small free list.
const smallPacket = 256

// recycle puts a packet buffer nobody refers to any more on its free
// list. SendTo takes over whatever its caller built the datagram in, so
// a buffer smaller than smallPacket can get here; it is left to the
// collector, which keeps every buffer on the small list good for any
// small request.
func (n *Net) recycle(b []byte) {
	switch {
	case cap(b) == smallPacket:
		n.free[0] = append(n.free[0], b)
	case cap(b) > smallPacket:
		n.free[1] = append(n.free[1], b)
	}
}

// SendTo transmits one datagram toward dst, independent of the
// connected peer — the transport-layer send path (stream segments carry
// their own addressing). It takes data over: the buffer is the net's
// from here on, to reuse after the last delivery, so the caller must
// not touch it again. onSent, if non-nil, fires with nil at interrupt
// level once the link has accepted the datagram.
func (s *Socket) SendTo(dst int, data []byte, onSent func(error)) {
	s.net.transmit(txRequest{
		pkt:    packet{data: data, from: s.port},
		dst:    dst,
		onSent: onSent,
	})
}

// ---- kernel.FileOps ----

// Read implements kernel.FileOps: blocks for the next datagram;
// zero-length return means the peer shut down.
func (s *Socket) Read(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	return s.Readv(ctx, [][]byte{p}, off)
}

// Write implements kernel.FileOps: sends one datagram to the connected
// peer and returns when it has been handed to the link (a nonblocking
// write does not wait for that).
func (s *Socket) Write(ctx kernel.Ctx, p []byte, off int64) (int, error) {
	return kernel.AwaitWrite(ctx, p, s.SpliceWrite)
}

// Readv implements kernel.ReadvOps: it receives ONE datagram and
// scatters it across the iovec array in order; bytes beyond the
// vector's total length are truncated, exactly as recvfrom truncates an
// oversized datagram.
func (s *Socket) Readv(ctx kernel.Ctx, iovs [][]byte, off int64) (int, error) {
	if err := kernel.SleepUntil(ctx, s, kernel.PSOCK+1, s.readable); err != nil || s.rcvq.Len() == 0 {
		return 0, err // refused or interrupted, else EOF
	}
	u := kernel.Uio{Iovs: iovs}
	data, _ := s.takeDatagram(u.Total())
	n := u.Scatter(data)
	s.net.recycle(data) // copied out: the buffer is nobody's
	return n, nil
}

// Writev implements kernel.WritevOps: it builds ONE datagram from the
// iovec array and sends it to the connected peer — N iovecs still cross
// the wire as a single packet, not N, so message framing is preserved
// no matter how the sender assembled the payload.
func (s *Socket) Writev(ctx kernel.Ctx, iovs [][]byte, off int64) (int, error) {
	u := kernel.Uio{Iovs: iovs}
	return s.Write(ctx, u.Gather(), 0)
}

// Close implements kernel.FileOps: the port is released and an EOF
// marker is sent to the connected peer so spliced relays terminate.
func (s *Socket) Close(ctx kernel.Ctx) error {
	if s.closed {
		return nil
	}
	if s.peer >= 0 {
		s.net.transmit(txRequest{pkt: packet{from: s.port, eof: true}, dst: s.peer})
	}
	s.closed = true
	delete(s.net.socks, s.port)
	s.serveWaiters()
	return nil
}

// ---- kernel.PollOps ----

// PollReady implements kernel.PollOps: readable when a datagram (or
// EOF) is queued; writable whenever the socket is open, since datagram
// sends queue on the link without blocking the caller indefinitely.
func (s *Socket) PollReady(events int) int {
	r := 0
	if events&kernel.PollIn != 0 && s.readable() {
		r |= kernel.PollIn
	}
	if events&kernel.PollOut != 0 && !s.closed {
		r |= kernel.PollOut
	}
	if s.closed {
		r |= kernel.PollHup
	}
	return r
}

// PollQueue implements kernel.PollOps.
func (s *Socket) PollQueue() *kernel.PollQueue { return &s.pollQ }

// ---- splice endpoints ----

// SpliceWrite implements the splice Sink interface: each chunk is sent
// as one datagram; done fires when the link has accepted it, which is
// the sink-side flow control. data is borrowed and not read again once
// the call has returned.
func (s *Socket) SpliceWrite(data []byte, done func(error)) {
	if s.closed {
		done(kernel.ErrBadFD)
		return
	}
	if s.peer < 0 {
		done(kernel.ErrInval)
		return
	}
	pkt := s.PacketBuf(len(data)) // the wire's own copy (mbuf)
	copy(pkt, data)
	s.SendTo(s.peer, pkt, done)
}

// SpliceRead implements the splice Source interface: the next datagram
// is delivered immediately if queued, otherwise on its receive
// interrupt.
func (s *Socket) SpliceRead(max int, deliver func([]byte, bool, error)) {
	s.rd.Read(max, deliver, s.readable(), s.takeDatagram)
}

// CancelSpliceRead implements the splice Source interface.
func (s *Socket) CancelSpliceRead() bool { return s.rd.Cancel() }
