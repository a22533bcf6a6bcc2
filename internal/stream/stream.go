// Package stream implements a TCP-lite reliable stream transport
// layered on the datagram network (internal/socket): sequence-numbered
// segments with cumulative acknowledgements, retransmission driven by
// the kernel callout list with exponential backoff, and a sliding
// sender window fed by receiver-advertised credit.
//
// Connections implement kernel.FileOps and the splice Source/Sink
// interfaces, so splice(file_fd, conn_fd, SPLICE_EOF) streams a file to
// a client entirely at interrupt level, with the splice watermarks
// composing with the transport window — the in-kernel data path the
// paper's §5.1/§7 server scenario calls for.
//
// All protocol input runs at interrupt level: the transport binds one
// datagram socket and installs an input handler that demultiplexes
// arriving segments onto connections, the way netisr-level protocol
// processing feeds socket buffers in the BSD stack.
package stream

import (
	"slices"

	"kdp/internal/kernel"
	"kdp/internal/socket"
	"kdp/internal/trace"
)

// connKey identifies a connection by peer port and initiator-chosen id,
// so ids from different peers never collide.
func connKey(remote int, id uint32) uint64 {
	return uint64(uint32(remote))<<32 | uint64(id)
}

// Transport is a stream endpoint bound to one port on a Net. One
// transport serves both roles: Listen/Accept for servers, Connect for
// clients; many connections share the port.
type Transport struct {
	k    *kernel.Kernel
	sock *socket.Socket
	port int

	nextID    uint32
	listening bool
	acceptW   byte // Accept sleep channel
	conns     map[uint64]*Conn
	// live holds the connections not yet retired, in the order they
	// were created, for the invariant checker (see CheckInvariants).
	live []*Conn
	// ghosts records retired connection keys with their final
	// cumulative ack, oldest first. A FIN retransmitted after both
	// sides finished still earns an acknowledgement from here. Entries
	// expire on the callout list after twice the give-up interval (see
	// addGhost) — by then a conforming peer has either heard the ack or
	// torn the connection down — so the list stays bounded by the churn
	// inside one TTL window instead of growing with every connection
	// ever retired.
	ghosts   []ghostEntry
	ghostGen uint64

	// delacks holds the connections that owe a delayed ACK, in the order
	// they queued; its array is reused. fast is the fast timeout that
	// sends them, armed only while the list is non-empty and due at tick
	// fastDue, a multiple of fastTicks (4.3BSD's tcp_fasttimo).
	delacks []*Conn
	fast    kernel.Callout
	fastDue int64
	fastFn  func() // fastTimo, bound once

	acceptq []*Conn
	pollQ   kernel.PollQueue

	// gen is the catalog's generation (invariants.go); due is the tick
	// from which the clock alone would fail its last walk's state.
	gen kernel.Gen
	due int64
}

// NewTransport binds a stream transport to port on net.
func NewTransport(k *kernel.Kernel, net *socket.Net, port int) (*Transport, error) {
	s, err := net.NewSocket(port)
	if err != nil {
		return nil, err
	}
	t := &Transport{
		k:     k,
		sock:  s,
		port:  port,
		conns: make(map[uint64]*Conn),
	}
	t.fastFn = t.fastTimo
	k.Track(t)
	s.SetHandler(t.input)
	return t, nil
}

// Port returns the bound port.
func (t *Transport) Port() int { return t.port }

// input is the protocol input routine, invoked at interrupt level for
// every datagram arriving on the transport's port. It keeps the packet
// when a connection stashed it for reassembly (socket.SetHandler).
func (t *Transport) input(p *socket.Packet, from int, eof bool) (kept bool) {
	if eof {
		return false
	}
	seg, ok := decodeSegment(p)
	if !ok {
		return false
	}
	t.gen.Bump() // input runs at interrupt level: one bump covers it
	key := connKey(from, seg.connID)
	if seg.typ == segSYN {
		t.handleSYN(key, from, seg)
		return false
	}
	if c, live := t.conns[key]; live {
		return c.handleSegment(seg, p)
	}
	if e := t.ghost(key); e != nil && seg.typ != segACK {
		// A lost final ACK left the peer retransmitting its FIN:
		// answer with the recorded cumulative ack.
		reply := t.sock.NewPacket(hdrBytes)
		segment{typ: segACK, connID: seg.connID, ack: e.final}.encode(reply.Data[0].Bytes())
		t.sock.SendTo(from, reply, nil)
	}
	return false
}

// fastTicks is the fast timeout's period: 200 ms of 10 ms ticks
// (PR_FASTHZ 5).
const fastTicks = 20

// queueDelack records that c owes the peer an ACK and arms the fast
// timeout for the next 200 ms boundary of the tick clock if it is not
// already pending.
func (t *Transport) queueDelack(c *Conn) {
	if c.delack {
		return
	}
	c.delack = true
	t.delacks = append(t.delacks, c)
	if t.fast == (kernel.Callout{}) {
		n := fastTicks - int(t.k.Ticks()%fastTicks)
		t.fast = t.k.Timeout(t.fastFn, n)
		t.fastDue = t.k.Ticks() + int64(n)
	}
}

// dropDelack takes c off the list once a segment has carried its ACK,
// and disarms the fast timeout when nobody else owes one.
func (t *Transport) dropDelack(c *Conn) {
	c.delack = false
	if i := slices.Index(t.delacks, c); i >= 0 {
		t.delacks = slices.Delete(t.delacks, i, i+1)
	}
	if len(t.delacks) == 0 {
		t.k.Untimeout(t.fast)
		t.fast = kernel.Callout{}
	}
}

// fastTimo is the fast timeout: it sends every ACK still owed, in the
// order the connections queued. Each send takes its connection off the
// list.
func (t *Transport) fastTimo() {
	t.fast = kernel.Callout{}
	for len(t.delacks) > 0 {
		c := t.delacks[0]
		t.k.TraceEmit(trace.KindStreamDelack, 0, c.rcvNxt, 0, c.label)
		c.sendCtl(segACK, 0)
	}
}

// ghostEntry is the retained state of a retired connection: enough to
// acknowledge a retransmitted FIN, plus its reaping deadline.
type ghostEntry struct {
	key     uint64
	final   int64 // final cumulative ack for the key
	expires int64 // tick after which the entry must be gone
	gen     uint64
}

// ghostTTL is the retired-state retention in ticks: twice the give-up
// interval (the full RTO backoff schedule a peer walks before
// declaring the connection dead). After that no conforming peer can
// still be retransmitting its FIN, so the entry is useless.
func ghostTTL() int {
	total, rto := 0, initialRTO
	for i := 0; i < maxRetries; i++ {
		total += rto
		if rto *= 2; rto > maxRTO {
			rto = maxRTO
		}
	}
	return 2 * total
}

// addGhost records a retired connection and schedules its expiry. The
// generation guards the callout against the key being reused (which
// deletes the entry) and re-retired before the old callout fires.
func (t *Transport) addGhost(key uint64, final int64) {
	ttl := ghostTTL()
	t.ghostGen++
	gen := t.ghostGen
	t.dropGhost(key)
	t.ghosts = append(t.ghosts, ghostEntry{key: key, final: final, expires: t.k.Ticks() + int64(ttl), gen: gen})
	t.k.Timeout(func() {
		if e := t.ghost(key); e != nil && e.gen == gen {
			t.dropGhost(key)
		}
	}, ttl)
}

// DisarmGhostReaps disarms the expiry callout of every retired-connection
// record t holds: it still fires at its tick but reaps nothing, so each
// record outlives its deadline. It is the planted fault with which the
// checker's tests pin the tick stream-ghost-bound reports at; production
// paths never call it.
func (t *Transport) DisarmGhostReaps() {
	for i := range t.ghosts {
		t.ghosts[i].gen = 0 // generations start at 1
	}
}

// ghost returns the retired-connection record for key, or nil. The
// list is scanned: it holds one entry per connection retired inside the
// TTL window, which is the client count (8 to 16) on the server
// workloads and 2 under the checker.
func (t *Transport) ghost(key uint64) *ghostEntry {
	for i := range t.ghosts {
		if t.ghosts[i].key == key {
			return &t.ghosts[i]
		}
	}
	return nil
}

// dropGhost forgets key's record, if there is one.
func (t *Transport) dropGhost(key uint64) {
	t.ghosts = slices.DeleteFunc(t.ghosts, func(e ghostEntry) bool { return e.key == key })
	t.gen.Bump()
}

// Ghosts returns the number of retired-connection records currently
// retained (bounded by the churn within one TTL window).
func (t *Transport) Ghosts() int { return len(t.ghosts) }

func (t *Transport) handleSYN(key uint64, from int, seg segment) {
	t.dropGhost(key) // key reuse starts a fresh connection
	if c, live := t.conns[key]; live {
		// Duplicate SYN: the SYNACK was lost; repeat it.
		c.sendCtl(segSYNACK, 0)
		return
	}
	if !t.listening {
		return
	}
	c := newConn(t, from, seg.connID, stateEstablished)
	c.peerWnd = seg.wnd
	t.conns[key] = c
	t.acceptq = append(t.acceptq, c)
	c.sendCtl(segSYNACK, 0)
	t.k.Wakeup(&t.acceptW)
	t.pollQ.Notify(kernel.PollIn)
}

// ---- connection-setup syscalls ----

// Listen marks the transport as accepting connections.
func (t *Transport) Listen(p *kernel.Proc) error {
	defer p.SyscallExit(p.SyscallEnter("listen"))
	t.listening = true
	return nil
}

// Accept blocks until a connection arrives, installs it in the caller's
// descriptor table, and returns the descriptor.
func (t *Transport) Accept(p *kernel.Proc) (int, *Conn, error) {
	defer p.SyscallExit(p.SyscallEnter("accept"))
	if !t.listening {
		return -1, nil, kernel.ErrInval
	}
	for len(t.acceptq) == 0 {
		if err := p.Sleep(&t.acceptW, kernel.PSOCK+1); err != nil {
			return -1, nil, err
		}
	}
	c := t.acceptq[0]
	t.acceptq = t.acceptq[1:]
	fd := p.InstallFile(c, kernel.ORdWr)
	return fd, c, nil
}

// AcceptNB is the nonblocking accept: it returns ErrWouldBlock when no
// connection is queued instead of sleeping. Event-loop servers poll
// the listener file (see File) and then drain the queue with AcceptNB.
func (t *Transport) AcceptNB(p *kernel.Proc) (int, *Conn, error) {
	defer p.SyscallExit(p.SyscallEnter("accept"))
	if !t.listening {
		return -1, nil, kernel.ErrInval
	}
	if len(t.acceptq) == 0 {
		return -1, nil, kernel.ErrWouldBlock
	}
	c := t.acceptq[0]
	t.acceptq = t.acceptq[1:]
	fd := p.InstallFile(c, kernel.ORdWr)
	return fd, c, nil
}

// listenFile adapts the transport's accept queue to the descriptor
// layer so it can sit in a poll set: readable exactly when an accepted
// connection is waiting. Data transfer goes through connections, so
// read and write on it are refused.
type listenFile struct{ t *Transport }

func (lf listenFile) Read(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}
func (lf listenFile) Write(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}
func (lf listenFile) Close(ctx kernel.Ctx) error { return nil }

// PollReady implements kernel.PollOps: readable when Accept would not
// block.
func (lf listenFile) PollReady(events int) int {
	if events&kernel.PollIn != 0 && len(lf.t.acceptq) > 0 {
		return kernel.PollIn
	}
	return 0
}

// PollQueue implements kernel.PollOps.
func (lf listenFile) PollQueue() *kernel.PollQueue { return &lf.t.pollQ }

// File returns the transport's listener pseudo-file for installation
// in a descriptor table (the poll handle for the accept queue).
func (t *Transport) File() kernel.FileOps { return listenFile{t} }

// Connect opens a connection to the transport listening on remotePort,
// blocking through the handshake. It returns the installed descriptor.
// Connecting to an unbound port fails immediately with ErrConnRefused;
// a bound but unresponsive port times out after the retry budget.
func (t *Transport) Connect(p *kernel.Proc, remotePort int) (int, *Conn, error) {
	defer p.SyscallExit(p.SyscallEnter("connect"))
	if err := t.sock.Connect(remotePort); err != nil {
		return -1, nil, err
	}
	t.nextID++
	c := newConn(t, remotePort, t.nextID, stateSynSent)
	t.conns[c.key()] = c
	c.sendCtl(segSYN, 0)
	c.armRtx()
	for c.state == stateSynSent {
		if err := p.Sleep(&c.connW, kernel.PSOCK+1); err != nil {
			return -1, nil, err
		}
	}
	if c.failed != nil {
		return -1, nil, c.failed
	}
	fd := p.InstallFile(c, kernel.ORdWr)
	return fd, c, nil
}
