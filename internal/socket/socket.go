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
}

// rcvBufBytes bounds each socket's receive queue; datagrams arriving
// beyond it are dropped, as UDP does.
const rcvBufBytes = 64 << 10

// Ethernet10 returns parameters for the era's 10Mb/s shared Ethernet.
func Ethernet10() NetParams {
	return NetParams{
		Bandwidth:     1.25e6,
		Latency:       600 * sim.Microsecond,
		PerPacketCost: 120 * sim.Microsecond,
	}
}

// Loopback returns parameters for fast in-machine delivery.
func Loopback() NetParams {
	return NetParams{
		Bandwidth:     16e6,
		Latency:       50 * sim.Microsecond,
		PerPacketCost: 60 * sim.Microsecond,
	}
}

// Packet is a datagram as the net carries it: a chain of block spans,
// the way a 4.4BSD mbuf chain is a header mbuf and references to
// clusters. A datagram's bytes are its spans' in order; each span holds
// a reference to its block, so a payload moves between holders by
// reference and its bytes are copied only where a reader copies them
// out. A packet NewPacket builds with a header has it as its first
// span, in a smallPacket-byte block of the machine's Spares; a payload
// small enough extends that span, copied, as a small one travels in a
// header mbuf: a block referenced for a few bytes would hold a whole
// block for them.
type Packet struct {
	Data []sim.Span
}

// Len returns the datagram's length.
func (p *Packet) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, s := range p.Data {
		n += s.N
	}
	return n
}

// packet is a datagram on its way: an EOF marker has no Packet.
type packet struct {
	*Packet
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
	// free is the packet records nobody refers to any more, for
	// NewPacket: each keeps its span array. recs and spans are the
	// records NewNet made and their spans, for Release.
	free  []*Packet
	recs  []Packet
	spans []sim.Span

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

	siteDrop, siteDup, siteReorder *kernel.Site
}

// NewNet creates a network on machine k.
func NewNet(k *kernel.Kernel, p NetParams) *Net {
	if p.Bandwidth <= 0 {
		panic("socket: bandwidth must be positive")
	}
	name := p.Name
	if name == "" {
		name = "net"
	}
	fp := k.Faults()
	n := &Net{k: k, p: p, socks: make(map[int]*Socket),
		siteDrop:    fp.Site("net." + name + ".drop"),
		siteDup:     fp.Site("net." + name + ".dup"),
		siteReorder: fp.Site("net." + name + ".reorder"),
	}
	n.onSent, n.onArrive = n.txDone, n.rxArrive
	n.txq.Grow(netRecords)
	n.flying.Grow(netRecords)
	n.free = sim.NewTable[*Packet](netRecords)
	n.recs = sim.NewTable[Packet](netRecords)
	n.spans = sim.NewTable[sim.Span](netRecords * packetSpans)
	for i := range n.recs {
		n.recs[i].Data = n.spans[i*packetSpans : i*packetSpans : (i+1)*packetSpans]
		n.free[i] = &n.recs[i]
	}
	return n
}

// Release ends the net's life: its first packet records, their span
// array, its free list and its queues' arrays rest, cleared, in sim's
// recycler for the next NewNet, each if it is still the size NewNet
// drew. Nothing on the net may be used again.
func (n *Net) Release() {
	sim.RestTable(n.recs)
	sim.RestTable(n.spans)
	if cap(n.free) == netRecords {
		sim.RestTable(n.free[:netRecords])
	}
	n.txq.Rest(netRecords)
	n.flying.Rest(netRecords)
	n.recs, n.spans, n.free = nil, nil, nil
}

// packetSpans is the spans a record has room for from the start: a
// header, and a segment of MaxSeg bytes over blocks of as many, which
// needs two when it does not start at a block's first byte.
const packetSpans = 3

// netRecords sizes a net's link and propagation queues and its stock of
// packet records at construction. It is measured on one stream
// connection moving a megabyte (stream's TestStreamTransferAllocBudget),
// which peaks at 3 queued datagrams, 3 in propagation and 5 packet
// records out (3, 4 and 8 on its lossy link), counting the packets the
// receiving connection stashes for reassembly, so that traffic reaches
// no new high-water mark after its warm-up; a queue reclaims its popped
// slots only once they are most of its array, hence the margin. Busier
// traffic, such as many connections at once, may still grow the queues
// and the stock past it.
const netRecords = 16

// DropSite returns the net's datagram-loss fault site ID.
func (n *Net) DropSite() kernel.FaultSite { return n.siteDrop.ID() }

// DupSite returns the net's datagram-duplication fault site ID.
func (n *Net) DupSite() kernel.FaultSite { return n.siteDup.ID() }

// ReorderSite returns the net's datagram-reorder fault site ID.
func (n *Net) ReorderSite() kernel.FaultSite { return n.siteReorder.ID() }

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
	ser := sim.BytesAt(int64(n.sending.pkt.Len()), n.p.Bandwidth)
	n.k.Engine().Schedule(ser, "net:tx", n.onSent)
}

// txDone fires when the link has serialized the request it was sending.
func (n *Net) txDone() {
	req := n.sending
	n.sending = txRequest{}
	n.sent++
	n.k.TraceEmit(trace.KindNetTx, 0, int64(req.pkt.Len()), int64(req.dst), "")
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
	if !pkt.eof && pkt.Len() > 0 {
		n.rxCount++
		ord := n.rxCount
		if n.siteDrop.Hit(ord) {
			n.dropped++
			n.k.TraceEmit(trace.KindNetDrop, 0, int64(pkt.Len()), int64(port), "")
			n.recycle(pkt.Packet)
			return
		}
		dup = n.siteDup.Hit(ord)
		if n.siteReorder.Hit(ord) {
			n.k.Hold()
			n.flying.Push(flight{pkt, port, true, dup})
			n.k.Engine().Schedule(n.p.Latency, "net:reorder", n.onArrive)
			return
		}
	}
	n.arrive(port, pkt, dup)
}

// arrive delivers pkt — twice under dup — and recycles each packet a
// delivery did not keep. A kept packet is its keeper's alone: a receive
// queue's until the read that empties it, a handler's until it calls
// Recycle, which it may do before it returns. So a duplicate gets a
// record of its own before the first delivery, while the packet is
// still the net's: a reference of its own to each block of the chain,
// header's included, whose bytes nobody stores into.
func (n *Net) arrive(port int, pkt packet, dup bool) {
	twin := pkt
	if dup {
		twin.Packet = n.newPacket(0)
		for _, s := range pkt.Data {
			s.Blk.Ref()
			twin.Data = append(twin.Data, s)
		}
	}
	if !n.deliverTo(port, pkt) {
		n.recycle(pkt.Packet)
	}
	if dup {
		n.k.StealCPU(n.p.PerPacketCost)
		if !n.deliverTo(port, twin) {
			n.recycle(twin.Packet)
		}
	}
}

// deliverTo hands pkt to the socket bound to port and reports whether
// that socket kept pkt.Packet: its receive queue holds it, or its
// handler said so.
func (n *Net) deliverTo(port int, pkt packet) (kept bool) {
	size := pkt.Len()
	s, ok := n.socks[port]
	if !ok || s.closed {
		n.dropped++
		n.k.TraceEmit(trace.KindNetDrop, 0, int64(size), int64(port), "")
		return false
	}
	if s.handler != nil {
		// Protocol input processing: the handler takes the packet at
		// interrupt level, so no receive queue (and no receive-buffer
		// bound) is involved.
		n.delivered++
		n.k.TraceEmit(trace.KindNetRx, 0, int64(size), int64(port), "")
		return s.handler(pkt.Packet, pkt.from, pkt.eof)
	}
	if s.rcvBytes+size > rcvBufBytes {
		n.dropped++
		n.k.TraceEmit(trace.KindNetDrop, 0, int64(size), int64(port), "")
		return false
	}
	n.delivered++
	n.k.TraceEmit(trace.KindNetRx, 0, int64(size), int64(port), "")
	s.rcvBytes += size
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
	handler func(p *Packet, from int, eof bool) (kept bool)

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

// takeDatagram pops the next datagram (or its first limit bytes; the
// rest of the datagram is discarded, as recvfrom does) for a splice
// read, by reference: a span of the packet's first block, with a
// reference taken for the reader, when the bytes lie in it, else a copy
// in one block of the machine's Spares.
func (s *Socket) takeDatagram(limit int) (data []byte, blk *sim.Block, eof bool) {
	if s.rcvq.Len() == 0 {
		return nil, nil, s.closed
	}
	pkt := s.rcvq.Pop()
	s.rcvBytes -= pkt.Len()
	if pkt.eof {
		return nil, nil, true
	}
	switch n := min(limit, pkt.Len()); {
	case n == 0:
	case pkt.Data[0].N >= n:
		blk, data = pkt.Data[0].Blk, pkt.Data[0].Bytes()[:n]
		blk.Ref()
	default:
		blk = s.net.k.Spares().Get(max(n, kernel.FIFOBlock))
		data = blk.Bytes[:scatter([][]byte{blk.Bytes[:n]}, pkt.Packet)]
	}
	s.net.recycle(pkt.Packet)
	return data, blk, false
}

// scatter copies p's bytes across iovs in order and returns the number
// placed; what does not fit is left behind.
func scatter(iovs [][]byte, p *Packet) int {
	u := kernel.Uio{Iovs: iovs}
	n := 0
	for _, sp := range p.Data {
		n += u.Scatter(sp.Bytes())
	}
	return n
}

// SetHandler installs an interrupt-level input handler: every packet
// arriving for this socket is handed to fn directly — with the sending
// port, as protocol input routines need — instead of being queued for
// readers. A handler socket has no receive-buffer bound (the handler
// takes each packet as it arrives). The stream transport uses this to
// demultiplex segments onto connections. Pass nil to restore queued
// delivery.
//
// p is the packet itself (nil with eof). fn returns kept = false to
// lend it back: the net reuses it once fn has returned. It returns kept
// = true to take it over, as 4.3BSD's tcp_reass queues a segment's
// mbufs: the packet is then its keeper's until handed back through
// Recycle, which may happen before fn returns. Kept or not, fn may
// share the blocks of p's spans (kernel.FIFO.Share takes a reference of
// its own) but stores into none of them: a duplicated datagram reaches
// fn twice in records of its own over the same blocks. The stream
// transport keeps only what it stashes for reassembly; in-order data
// it shares into a connection's receive buffer and lends p back.
func (s *Socket) SetHandler(fn func(p *Packet, from int, eof bool) (kept bool)) {
	s.handler = fn
}

// Recycle hands back a packet a handler kept (see SetHandler), once
// nothing refers to it any more: the spans still in Data drop their
// references.
func (s *Socket) Recycle(p *Packet) { s.net.recycle(p) }

// NewPacket returns a packet, off the net's free list when that has
// one, to build a datagram for SendTo in: with hdr > 0, its one span is
// an hdr-byte header of unspecified content at the front of a
// smallPacket-byte block drawn from the machine's Spares, which the
// caller may extend over a small payload; with hdr 0 it has no span.
// The caller appends the payload's spans, each holding a reference.
func (s *Socket) NewPacket(hdr int) *Packet { return s.net.newPacket(hdr) }

func (n *Net) newPacket(hdr int) *Packet {
	var p *Packet
	if top := len(n.free) - 1; top >= 0 {
		p = n.free[top]
		n.free[top], n.free = nil, n.free[:top]
	} else {
		p = &Packet{Data: make([]sim.Span, 0, packetSpans)}
	}
	if hdr > 0 {
		p.Data = append(p.Data, sim.Span{Blk: n.k.Spares().Get(smallPacket), N: hdr})
	}
	return p
}

// smallPacket is the size of a header's block: a datagram of no more
// bytes than this that comes from no block travels in it alone, as a
// small one does in an mbuf.
const smallPacket = 256

// recycle drops the references p's spans hold and puts p on the free
// list (nil recycles nothing).
func (n *Net) recycle(p *Packet) {
	if p == nil {
		return
	}
	spares := n.k.Spares()
	for _, s := range p.Data {
		spares.Drop(s.Blk)
	}
	clear(p.Data)
	p.Data = p.Data[:0]
	n.free = append(n.free, p)
}

// SendTo transmits one datagram toward dst, independent of the
// connected peer — the transport-layer send path (stream segments carry
// their own addressing). It takes p over: the packet is the net's from
// here on, to reuse after the last delivery, so the caller must not
// touch it again. onSent, if non-nil, fires with nil at interrupt level
// once the link has accepted the datagram.
func (s *Socket) SendTo(dst int, p *Packet, onSent func(error)) {
	s.net.transmit(txRequest{
		pkt:    packet{Packet: p, from: s.port},
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
	pkt := s.rcvq.Pop()
	if s.rcvBytes -= pkt.Len(); pkt.eof {
		return 0, nil
	}
	n := scatter(iovs, pkt.Packet)
	s.net.recycle(pkt.Packet) // copied out: the packet is nobody's
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
// the sink-side flow control. The datagram shares blk, the block data
// is a window of; data of no block is copied into a header block
// (NewPacket) when it fits, and into blocks of the machine's Spares
// otherwise. Either way data is not read again once the call has
// returned.
func (s *Socket) SpliceWrite(data []byte, blk *sim.Block, done func(error)) {
	if s.closed {
		done(kernel.ErrBadFD)
		return
	}
	if s.peer < 0 {
		done(kernel.ErrInval)
		return
	}
	var p *Packet
	switch {
	case blk != nil && len(data) > 0:
		p = s.net.newPacket(0)
		blk.Ref()
		p.Data = append(p.Data, sim.SpanOf(blk, data))
	case len(data) > 0 && len(data) <= smallPacket:
		p = s.net.newPacket(len(data))
		copy(p.Data[0].Bytes(), data)
	default:
		p = s.net.newPacket(0)
		for len(data) > 0 {
			var sp sim.Span
			sp, data = s.net.k.Spares().Copy(data)
			p.Data = append(p.Data, sp)
		}
	}
	s.SendTo(s.peer, p, done)
}

// SpliceRead implements the splice Source interface: the next datagram
// is delivered immediately if queued, otherwise on its receive
// interrupt.
func (s *Socket) SpliceRead(max int, deliver kernel.Deliver) {
	s.rd.Read(max, deliver, s.readable(), s.takeDatagram)
}

// CancelSpliceRead implements the splice Source interface.
func (s *Socket) CancelSpliceRead() bool { return s.rd.Cancel() }
