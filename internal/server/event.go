package server

import (
	"fmt"

	"kdp/internal/kernel"
	"kdp/internal/splice"
	"kdp/internal/trace"
)

// The event-loop engine: one process drives every connection through
// poll. Accepts are drained nonblockingly from the listener file, each
// connection advances a small state machine on readiness, and the data
// path is either nonblocking read/write (event) or one asynchronous
// splice per request (escp) — the event loop only arbitrates
// readiness while spliced data moves at interrupt level, so adding
// clients adds descriptors, not processes.

// econnState is the per-connection position in the request cycle.
type econnState int

const (
	evWaitReq  econnState = iota // poll for the request byte
	evSending                    // copy-mode response partially written
	evSplicing                   // async splice in flight
	evDead                       // closed; remove at the next sweep
)

// econn is one event-loop connection.
type econn struct {
	cfd int // connection descriptor (nonblocking)
	sfd int // private source-file descriptor (own offset)

	state     econnState
	remaining int64 // response bytes not yet read from the file
	chunk     []byte
	coff      int            // first unwritten byte of chunk
	handle    *splice.Handle // in-flight async splice (evSplicing)
}

// complPort is the pollable completion queue async splices report to:
// an eventfd-like object whose readiness is "a splice finished". The
// splice OnDone hook posts at interrupt level; the event loop holds
// the port in its poll set and drains it in process context.
type complPort struct {
	q     []*econn
	pollQ kernel.PollQueue
}

func (cp *complPort) post(ec *econn) {
	cp.q = append(cp.q, ec)
	cp.pollQ.Notify(kernel.PollIn)
}

func (cp *complPort) drain() []*econn {
	q := cp.q
	cp.q = nil
	return q
}

// Read implements kernel.FileOps (the port carries no byte stream).
func (cp *complPort) Read(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

// Write implements kernel.FileOps.
func (cp *complPort) Write(ctx kernel.Ctx, b []byte, off int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

// Close implements kernel.FileOps.
func (cp *complPort) Close(ctx kernel.Ctx) error { return nil }

// PollReady implements kernel.PollOps: readable while completions wait.
func (cp *complPort) PollReady(events int) int {
	if events&kernel.PollIn != 0 && len(cp.q) > 0 {
		return kernel.PollIn
	}
	return 0
}

// PollQueue implements kernel.PollOps.
func (cp *complPort) PollQueue() *kernel.PollQueue { return &cp.pollQ }

// eventLoop is the single serving process.
func (s *Server) eventLoop(p *kernel.Proc) {
	t := s.cfg.Transport
	if err := t.Listen(p); err != nil {
		panic(fmt.Sprintf("server %s: listen: %v", s.cfg.Name, err))
	}
	lfd := p.InstallFile(t.File(), kernel.ORdOnly)
	port := &complPort{}
	s.port = port
	pfd := p.InstallFile(port, kernel.ORdOnly)

	var conns []*econn
	fds := make([]kernel.PollFd, 0, 2+s.cfg.Conns)
	owners := make([]*econn, 0, 2+s.cfg.Conns)

	for {
		// Sweep out connections closed during the last dispatch.
		live := conns[:0]
		for _, ec := range conns {
			if ec.state != evDead {
				live = append(live, ec)
			}
		}
		conns = live
		accepting := s.accepted < int64(s.cfg.Conns)
		if !accepting && len(conns) == 0 {
			break
		}

		// Build the poll set: listener (while accepting), the splice
		// completion port, and every connection in its current
		// interest state. Splicing connections wait on the port, not
		// their own descriptor.
		fds, owners = fds[:0], owners[:0]
		if accepting {
			fds = append(fds, kernel.PollFd{FD: lfd, Events: kernel.PollIn})
			owners = append(owners, nil)
		}
		fds = append(fds, kernel.PollFd{FD: pfd, Events: kernel.PollIn})
		owners = append(owners, nil)
		for _, ec := range conns {
			switch ec.state {
			case evWaitReq:
				fds = append(fds, kernel.PollFd{FD: ec.cfd, Events: kernel.PollIn})
				owners = append(owners, ec)
			case evSending:
				fds = append(fds, kernel.PollFd{FD: ec.cfd, Events: kernel.PollOut})
				owners = append(owners, ec)
			}
		}

		n, err := p.Poll(fds, -1)
		if err == kernel.ErrIntr {
			// An async splice's SIGIO broke the sleep; consume it and
			// rescan — the completion port is ready now.
			p.DeliverSignals()
			continue
		}
		if err != nil {
			panic(fmt.Sprintf("server %s: poll: %v", s.cfg.Name, err))
		}
		if n == 0 {
			continue
		}

		for i := range fds {
			if fds[i].Revents == 0 {
				continue
			}
			s.k.TraceEmit(trace.KindServerReady, p.Pid(),
				int64(fds[i].FD), int64(fds[i].Revents), s.cfg.Name)
			switch {
			case fds[i].FD == lfd:
				conns = append(conns, s.acceptReady(p)...)
			case fds[i].FD == pfd:
				for _, ec := range port.drain() {
					s.spliceDone(p, ec)
				}
			default:
				s.connReady(p, owners[i])
			}
		}
	}
	_ = p.Close(pfd)
	_ = p.Close(lfd)
}

// acceptReady drains the accept queue, configuring each new connection
// for nonblocking service (plus FASYNC in splice mode, so each
// response is one async splice).
func (s *Server) acceptReady(p *kernel.Proc) []*econn {
	var added []*econn
	for {
		cfd, conn, err := s.cfg.Transport.AcceptNB(p)
		if err == kernel.ErrWouldBlock {
			return added
		}
		if err != nil {
			panic(fmt.Sprintf("server %s: accept: %v", s.cfg.Name, err))
		}
		s.accepted++
		s.k.TraceEmit(trace.KindServerAccept, p.Pid(),
			int64(conn.RemotePort()), s.accepted, s.cfg.Name)
		flags := kernel.ONonblock
		if s.cfg.Mode == ModeSplice {
			flags |= kernel.FAsync
		}
		if _, err := p.Fcntl(cfd, kernel.FSetFL, flags); err != nil {
			panic(fmt.Sprintf("server %s: fcntl: %v", s.cfg.Name, err))
		}
		sfd, err := p.Open(s.cfg.Path, kernel.ORdOnly)
		if err != nil {
			panic(fmt.Sprintf("server %s: open %s: %v", s.cfg.Name, s.cfg.Path, err))
		}
		added = append(added, &econn{cfd: cfd, sfd: sfd})
	}
}

// connReady advances one connection's state machine.
func (s *Server) connReady(p *kernel.Proc, ec *econn) {
	switch ec.state {
	case evWaitReq:
		req := make([]byte, 1)
		n, err := p.Read(ec.cfd, req)
		if err == kernel.ErrWouldBlock {
			return // spurious readiness (already consumed this round)
		}
		if err != nil || n == 0 {
			s.closeConn(p, ec) // client closed its half, or conn failed
			return
		}
		s.startResponse(p, ec)
	case evSending:
		s.pushCopy(p, ec)
	}
}

// startResponse begins serving one request: rewind the private file
// descriptor, then either launch the async splice or start the
// nonblocking copy loop.
func (s *Server) startResponse(p *kernel.Proc, ec *econn) {
	if _, err := p.Lseek(ec.sfd, 0, kernel.SeekSet); err != nil {
		panic(fmt.Sprintf("server %s: lseek: %v", s.cfg.Name, err))
	}
	if s.cfg.Mode == ModeSplice {
		ec.state = evSplicing
		port := s.port
		_, h, err := splice.SpliceOpts(p, ec.sfd, ec.cfd, s.cfg.FileBytes,
			splice.Options{OnDone: func() { port.post(ec) }})
		if err != nil {
			s.closeConn(p, ec)
			return
		}
		ec.handle = h
		return
	}
	ec.state = evSending
	ec.remaining = s.cfg.FileBytes
	ec.chunk, ec.coff = nil, 0
	s.pushCopy(p, ec)
}

// pushCopy drives the copy-mode response: refill an 8KB chunk from the
// (cached) file with a blocking read, then write it to the connection
// nonblockingly until the transport's send buffer pushes back.
func (s *Server) pushCopy(p *kernel.Proc, ec *econn) {
	for {
		if ec.coff == len(ec.chunk) {
			if ec.remaining == 0 {
				ec.state = evWaitReq
				s.requests++
				return
			}
			sz := int64(8192)
			if sz > ec.remaining {
				sz = ec.remaining
			}
			buf := make([]byte, sz)
			n, err := p.Read(ec.sfd, buf)
			if err != nil || n == 0 {
				s.closeConn(p, ec)
				return
			}
			ec.chunk, ec.coff = buf[:n], 0
			ec.remaining -= int64(n)
		}
		n, err := p.Write(ec.cfd, ec.chunk[ec.coff:])
		if err == kernel.ErrWouldBlock {
			return // poll will report PollOut when space opens
		}
		if err != nil {
			s.closeConn(p, ec)
			return
		}
		ec.coff += n
		s.bytes += int64(n)
	}
}

// spliceDone retires one completed async splice and returns the
// connection to request polling.
func (s *Server) spliceDone(p *kernel.Proc, ec *econn) {
	h := ec.handle
	ec.handle = nil
	if ec.state != evSplicing {
		return
	}
	if err := h.Err(); err != nil {
		s.bytes += h.Moved()
		s.closeConn(p, ec)
		return
	}
	s.bytes += h.Moved()
	s.requests++
	ec.state = evWaitReq
}

// closeConn tears one connection down. The connection close blocks
// until the FIN is acknowledged — one round trip during which no new
// readiness is dispatched, the same price the per-connection handler
// pays at end of stream.
func (s *Server) closeConn(p *kernel.Proc, ec *econn) {
	ec.state = evDead
	_ = p.Close(ec.sfd)
	_ = p.Close(ec.cfd)
}
